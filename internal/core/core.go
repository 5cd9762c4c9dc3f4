// Package core contains the paper's experiment harnesses: the figure
// reproductions (fig2–fig56), the tier advisor and its predictors, the
// placement studies and the wear model. Each is a method on Evaluator,
// which simulates a cell once however many of them ask for it; cmd/repro
// exposes one as a subcommand each, and Reproduce runs them all.
package core
