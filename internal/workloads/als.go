package workloads

import (
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/ml"
	"repro/internal/rdd"
	"repro/internal/rng"
)

// alsParams scales Table II's user/product/rating counts down 10x. The
// factorization rank and iteration count are fixed, which is why ALS shows
// the paper's near-constant execution time across sizes: its cost is
// dominated by the per-iteration factor solves and broadcasts, not by the
// (small) ratings table.
type alsParams struct {
	Users, Products, Ratings int
	Rank                     int
	Iterations               int
	Lambda                   float64
}

var alsSizes = [NumSizes]alsParams{
	Tiny:  {Users: 10, Products: 10, Ratings: 20, Rank: 6, Iterations: 3, Lambda: 0.1},
	Small: {Users: 100, Products: 100, Ratings: 200, Rank: 6, Iterations: 3, Lambda: 0.1},
	Large: {Users: 1000, Products: 1000, Ratings: 2000, Rank: 6, Iterations: 3, Lambda: 0.1},
}

// ALS is HiBench's alternating least squares collaborative filtering: each
// half-iteration groups ratings by one entity, solves that entity's normal
// equations against the broadcast factors of the other side, and collects
// the updated factors to the driver.
type ALS struct{}

// NewALS returns the workload.
func NewALS() *ALS { return &ALS{} }

// Name implements Workload.
func (a *ALS) Name() string { return "als" }

// Category implements Workload.
func (a *ALS) Category() Category { return MachineLearning }

// Describe implements Workload.
func (a *ALS) Describe(size Size) string {
	p := alsSizes[size]
	return fmtParams("users", p.Users, "products", p.Products, "ratings", p.Ratings,
		"rank", p.Rank, "iters", p.Iterations)
}

// Run implements Workload.
func (a *ALS) Run(app *cluster.App, size Size) Summary {
	p := alsSizes[size]
	seed := app.Seed()

	// HiBench generates the ratings table once up front.
	all := genRatings(rng.New(seed), p.Users, p.Products, p.Ratings, p.Rank)
	ratings := rdd.Cache(rdd.Parallelize(app, "ratings", all, 0))

	// Group once per orientation; the groupings are reused every iteration
	// (Spark caches these in ALS too).
	byUser := rdd.Cache(rdd.GroupByKey(
		rdd.Map(ratings, func(r Rating) rdd.Pair[int, Rating] { return rdd.KV(r.User, r) }), 0))
	byProduct := rdd.Cache(rdd.GroupByKey(
		rdd.Map(ratings, func(r Rating) rdd.Pair[int, Rating] { return rdd.KV(r.Product, r) }), 0))

	// Initial factors on the driver.
	init := rng.New(seed + 1)
	userF := make(map[int][]float64, p.Users)
	prodF := make(map[int][]float64, p.Products)
	for u := 0; u < p.Users; u++ {
		userF[u] = randVec(init, p.Rank)
	}
	for i := 0; i < p.Products; i++ {
		prodF[i] = randVec(init, p.Rank)
	}

	factorBytes := func(m map[int][]float64) int64 {
		return int64(len(m)) * int64(8*p.Rank+16)
	}

	solveSide := func(grouped *rdd.RDD[rdd.Pair[int, []Rating]], other map[int][]float64,
		otherKey func(Rating) int) map[int][]float64 {
		bcast := rdd.NewBroadcast(app, other, factorBytes(other))
		results := rdd.Collect(rdd.MapPartitions(grouped,
			func(ctx *executor.TaskContext, part int, in []rdd.Pair[int, []Rating]) []rdd.Pair[int, []float64] {
				factors := bcast.Value(ctx) // the other side's factors
				out := make([]rdd.Pair[int, []float64], 0, len(in))
				// One solver scratch per task, and every entity's factor
				// vector carved from one page.
				var solver ml.Solver
				page := make([]float64, len(in)*p.Rank)
				for _, g := range in {
					var x []float64
					flops := 0
					if len(g.Val) > 0 {
						solver.Reset(p.Rank)
						for _, rat := range g.Val {
							flops += solver.Add(factors[otherKey(rat)], rat.Score)
							// Factor lookup is a scattered read.
							ctx.MemRand(memsim.Read, 1, int64(8*p.Rank))
						}
						x, page = page[:p.Rank:p.Rank], page[p.Rank:]
						flops += solver.Solve(p.Lambda, x)
					}
					ctx.CPU(float64(flops) * ctx.Cost.FlopNS)
					out = append(out, rdd.KV(g.Key, x))
				}
				return out
			}))
		next := make(map[int][]float64, len(results))
		for _, pr := range results {
			next[pr.Key] = pr.Val
		}
		return next
	}

	for it := 0; it < p.Iterations; it++ {
		if upd := solveSide(byUser, prodF, func(r Rating) int { return r.Product }); len(upd) > 0 {
			for k, v := range upd {
				userF[k] = v
			}
		}
		if upd := solveSide(byProduct, userF, func(r Rating) int { return r.User }); len(upd) > 0 {
			for k, v := range upd {
				prodF[k] = v
			}
		}
	}

	// Training RMSE as the verification metric.
	uf := make([][]float64, len(all))
	pf := make([][]float64, len(all))
	scores := make([]float64, len(all))
	for i, r := range all {
		uf[i], pf[i], scores[i] = userF[r.User], prodF[r.Product], r.Score
	}
	rmse, _ := ml.RMSE(uf, pf, scores)
	return Summary{Records: p.Ratings, Metric: rmse, Note: "rmse"}
}
