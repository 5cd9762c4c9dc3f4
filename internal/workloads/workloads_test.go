package workloads

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/numa"
)

// testApp builds a small app so workload tests stay fast.
func testApp() *cluster.App {
	return testAppOn(memsim.Tier0)
}

// testAppOn builds a small app bound to the given tier.
func testAppOn(tier memsim.TierID) *cluster.App {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 8
	conf.DefaultParallelism = 8
	conf.Binding = numa.BindingForTier(tier)
	return cluster.New(conf)
}

func TestRegistryCompleteness(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("workload count = %d, want 7 (Table II)", len(all))
	}
	want := []string{"sort", "repartition", "als", "bayes", "rf", "lda", "pagerank"}
	for i, w := range all {
		if w.Name() != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name(), want[i])
		}
	}
	cats := map[string]Category{
		"sort": Micro, "repartition": Micro,
		"als": MachineLearning, "bayes": MachineLearning,
		"rf": MachineLearning, "lda": MachineLearning,
		"pagerank": Websearch,
	}
	for name, cat := range cats {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Category() != cat {
			t.Errorf("%s category = %s, want %s", name, w.Category(), cat)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestDescribeNonEmptyForAllSizes(t *testing.T) {
	for _, w := range All() {
		for _, s := range AllSizes() {
			d := w.Describe(s)
			if d == "" || !strings.Contains(d, "=") {
				t.Errorf("%s/%s describe = %q", w.Name(), s, d)
			}
		}
	}
}

func TestSizeStrings(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Large.String() != "large" {
		t.Error("size names wrong")
	}
	if Size(9).String() == "" {
		t.Error("out-of-range size must still render")
	}
}

func TestSortRuns(t *testing.T) {
	app := testApp()
	s := NewSort().Run(app, Tiny)
	if s.Records != 320 {
		t.Fatalf("sort tiny records = %d", s.Records)
	}
	if s.Metric < 320*90 { // ~100B/record output
		t.Fatalf("sort output bytes = %v too small", s.Metric)
	}
	if app.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRepartitionRuns(t *testing.T) {
	app := testApp()
	s := NewRepartition().Run(app, Tiny)
	if s.Records != 32 || s.Metric <= 0 {
		t.Fatalf("repartition summary = %v", s)
	}
}

func TestALSLearns(t *testing.T) {
	app := testApp()
	s := NewALS().Run(app, Small)
	if s.Note != "rmse" {
		t.Fatalf("summary = %v", s)
	}
	// Factors were generated from a rank-6 model with sigma=0.05 noise;
	// three ALS sweeps must fit well below the data's standard deviation.
	if s.Metric > 0.8 {
		t.Fatalf("ALS rmse = %v: did not learn", s.Metric)
	}
}

func TestBayesAccuracy(t *testing.T) {
	app := testApp()
	s := NewBayes().Run(app, Tiny)
	if s.Note != "accuracy" {
		t.Fatalf("summary = %v", s)
	}
	// 10 classes, 70% class-region tokens: NB should far exceed chance.
	if s.Metric < 0.5 {
		t.Fatalf("bayes accuracy = %v: barely above 10-class chance", s.Metric)
	}
}

func TestRandomForestAccuracy(t *testing.T) {
	app := testApp()
	s := NewRandomForest().Run(app, Small)
	if s.Note != "accuracy" {
		t.Fatalf("summary = %v", s)
	}
	// The label rule uses two binned features with 5% noise; depth-3
	// trees must beat 0.7.
	if s.Metric < 0.7 {
		t.Fatalf("rf accuracy = %v: trees did not learn the rule", s.Metric)
	}
}

func TestLDAConcentrates(t *testing.T) {
	app := testApp()
	s := NewLDA().Run(app, Tiny)
	if s.Note != "dominant_topic_share" {
		t.Fatalf("summary = %v", s)
	}
	// Random assignment over 10 topics gives ~0.2; 5 distributed Gibbs
	// sweeps must visibly concentrate.
	if s.Metric < 0.26 {
		t.Fatalf("lda dominant share = %v after 5 sweeps: no learning", s.Metric)
	}
}

func TestPageRankMass(t *testing.T) {
	app := testApp()
	s := NewPageRank().Run(app, Tiny)
	if s.Note != "rank_mass" {
		t.Fatalf("summary = %v", s)
	}
	// With dangling-node simplification the mass stays within [0.15n, n+1].
	n := float64(s.Records)
	if s.Metric < 0.15*n || s.Metric > 1.2*n {
		t.Fatalf("rank mass = %v for %v pages", s.Metric, n)
	}
}

func TestAllWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, _ := ByName(name)
			run := func() (Summary, int64) {
				app := testApp()
				s := w.Run(app, Tiny)
				return s, int64(app.Elapsed())
			}
			s1, e1 := run()
			s2, e2 := run()
			if s1 != s2 {
				t.Fatalf("summary not deterministic: %v vs %v", s1, s2)
			}
			if e1 != e2 {
				t.Fatalf("virtual time not deterministic: %d vs %d", e1, e2)
			}
		})
	}
}

func TestWorkloadsScaleWithSize(t *testing.T) {
	// Execution time must not shrink as input grows (als is allowed to be
	// nearly flat but not inverted beyond noise).
	for _, name := range []string{"sort", "repartition", "bayes", "pagerank"} {
		w, _ := ByName(name)
		var times [2]int64
		for i, size := range []Size{Tiny, Small} {
			app := testApp()
			w.Run(app, size)
			times[i] = int64(app.Elapsed())
		}
		if times[1] <= times[0] {
			t.Errorf("%s: small (%d) not slower than tiny (%d)", name, times[1], times[0])
		}
	}
}

func TestWorkloadsTouchBoundTier(t *testing.T) {
	for _, name := range Names() {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 8
		conf.DefaultParallelism = 8
		conf.Binding = numa.BindingForTier(memsim.Tier2)
		app := cluster.New(conf)
		w, _ := ByName(name)
		w.Run(app, Tiny)
		c := app.Tier().Counters()
		if c.MediaReads == 0 || c.MediaWrites == 0 {
			t.Errorf("%s: no media traffic on bound tier (reads=%d writes=%d)",
				name, c.MediaReads, c.MediaWrites)
		}
		// Nothing should leak to unbound tiers.
		if c := app.System().Tier(memsim.Tier1).Counters(); c.MediaReads+c.MediaWrites != 0 {
			t.Errorf("%s: traffic leaked to unbound tier", name)
		}
	}
}
