package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hibench"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// PredictorKind names the model families compared by ComparePredictors —
// the paper's §IV-F closes by suggesting "analytical models and/or Machine
// Learning techniques"; we evaluate one of each.
type PredictorKind string

// predictors are the compared model families in report column order; fit
// trains one on (xs, ys) and returns its prediction function.
var predictors = []struct {
	kind PredictorKind
	fit  func(xs [][]float64, ys []float64) func([]float64) float64
}{
	{"ols", func(xs [][]float64, ys []float64) func([]float64) float64 {
		return stats.FitOLS(xs, ys).Predict
	}},
	{"knn", func(xs [][]float64, ys []float64) func([]float64) float64 {
		knn := stats.NewKNNRegressor(3)
		knn.Fit(xs, ys)
		return knn.Predict
	}},
}

// PredictorScore is the leave-one-workload-out error of one model family.
type PredictorScore struct {
	Kind PredictorKind
	// MAPE maps held-out workload -> mean absolute percentage error over
	// its sizes x tiers.
	MAPE map[string]float64
	// Mean is the average MAPE across held-out workloads.
	Mean float64
}

// ComparePredictors runs leave-one-workload-out evaluation of the linear
// (OLS) advisor and a k-NN regressor over the same feature space. Both
// model families train on the same observations, so the whole comparison
// costs one simulation per distinct (workload, size, tier) cell. Workloads
// defaults to the paper's seven.
func (e *Evaluator) ComparePredictors(names []string, seed int64) ([]PredictorScore, error) {
	return predictorPlan(names, seed).run(e)
}

// predictorPlan plans observe's cells and folds them into the scores.
func predictorPlan(names []string, seed int64) plan[[]PredictorScore] {
	if names == nil {
		names = workloads.Names()
	}
	obs := observePlan(names, seed)
	return plan[[]PredictorScore]{qs: obs.qs, fold: func(results []hibench.RunResult) []PredictorScore {
		return scorePredictors(names, obs.fold(results))
	}}
}

// scorePredictors holds each workload out in turn and scores every model
// family trained on the others.
func scorePredictors(names []string, all []observation) []PredictorScore {
	var scores []PredictorScore
	for _, p := range predictors {
		score := PredictorScore{Kind: p.kind, MAPE: make(map[string]float64)}
		for _, holdout := range names {
			var trainX [][]float64
			var trainY []float64
			var testX [][]float64
			var testY []float64
			for _, o := range all {
				if o.workload == holdout {
					testX = append(testX, o.x)
					testY = append(testY, o.y)
				} else {
					trainX = append(trainX, o.x)
					trainY = append(trainY, o.y)
				}
			}
			predict := p.fit(trainX, trainY)
			var ape float64
			for i, x := range testX {
				// Floor at the profiled Tier 0 duration, feature 0 of the
				// advisor feature vector.
				pred := max(predict(x), x[0])
				ape += math.Abs(pred-testY[i]) / testY[i]
			}
			score.MAPE[holdout] = ape / float64(len(testX))
		}
		held := make([]string, 0, len(score.MAPE))
		for name := range score.MAPE {
			held = append(held, name)
		}
		sort.Strings(held)
		sum := 0.0
		for _, name := range held {
			sum += score.MAPE[name]
		}
		score.Mean = sum / float64(len(score.MAPE))
		scores = append(scores, score)
	}
	return scores
}

// PredictorTable renders the comparison.
func PredictorTable(scores []PredictorScore, names []string) Table {
	if names == nil {
		names = workloads.Names()
	}
	t := Table{
		Title:   "§IV-F predictor comparison: leave-one-workload-out MAPE",
		Headers: []string{"held-out workload"},
	}
	for _, s := range scores {
		t.Headers = append(t.Headers, string(s.Kind))
	}
	for _, w := range names {
		row := []string{w}
		for _, s := range scores {
			row = append(row, fmt.Sprintf("%.1f%%", s.MAPE[w]*100))
		}
		t.AddRow(row...)
	}
	row := []string{"mean"}
	for _, s := range scores {
		row = append(row, fmt.Sprintf("%.1f%%", s.Mean*100))
	}
	t.AddRow(row...)
	return t
}
