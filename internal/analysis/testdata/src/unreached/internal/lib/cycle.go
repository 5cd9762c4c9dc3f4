package lib

// Stage is called through by Run for Step. Its Name is called only from
// Chain.Name, itself an implementation of Name, so the two methods only
// call each other: the interface method and every implementation are
// reported.
type Stage interface {
	Step(x int) int
	Name() string
}

// Chain runs two stages in a row.
type Chain struct{ First, Second Stage }

// Step is live through Stage.Step.
func (c Chain) Step(x int) int { return c.Second.Step(c.First.Step(x)) }

// Name is dead: its only caller would be Stage.Name.
func (c Chain) Name() string { return c.First.Name() + "+" + c.Second.Name() }

// Double is the second Stage.
type Double struct{}

// Step is live through Stage.Step.
func (Double) Step(x int) int { return 2 * x }

// Name is dead with Stage.Name.
func (Double) Name() string { return "double" }

// Run steps s once; the command calls it.
func Run(s Stage, x int) int { return s.Step(x) }

// Labeler's Label is called from Wrap.Label, an implementation of Label
// the command calls directly, so the call counts: every Label is live.
type Labeler interface{ Label() string }

// Wrap brackets its inner label.
type Wrap struct{ Inner Labeler }

// Label is live: the command calls it.
func (w Wrap) Label() string { return "[" + w.Inner.Label() + "]" }

// Plain is a Labeler.
type Plain struct{}

// Label is live through Labeler.Label, which Wrap.Label calls.
func (Plain) Label() string { return "plain" }
