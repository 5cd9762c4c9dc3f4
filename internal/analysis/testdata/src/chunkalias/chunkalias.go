// Package chunkalias is simlint test input: violations of the columnar
// chunk shuffle's ownership discipline. Line positions are pinned by
// chunkalias.golden.
package chunkalias

import (
	"repro/internal/executor"
	"repro/internal/rdd"
	"repro/internal/shuffle"
)

// retained is a package-level escape target.
var retained []*shuffle.ChunkSet

// cache retains chunk references and closures past task scope.
type cache struct {
	sets []*shuffle.ChunkSet
	hook func() int
}

// badEscapes fetches chunk sets and retains them past task scope.
func badEscapes(ctx *executor.TaskContext, c *cache, shuffleID, reduce int) {
	sets := ctx.FetchShuffleChunks(shuffleID, reduce)
	retained = sets
	c.sets = append(c.sets, sets[0])
}

// badColumnWrites mutates borrowed columns in place.
func badColumnWrites(ctx *executor.TaskContext, shuffleID, reduce int) {
	sets := ctx.FetchShuffleChunks(shuffleID, reduce)
	ch := sets[0].Chunks.([]rdd.Chunk[int, int])[reduce]
	ch.Keys[0] = 42
	ch.Vals[0]++
	copy(ch.Vals, ch.Keys)
}

// badClosures leaks borrowed references into closures that outlive the
// task: a goroutine and a stored hook.
func badClosures(ctx *executor.TaskContext, c *cache, shuffleID, reduce int, out chan<- int) {
	sets := ctx.FetchShuffleChunks(shuffleID, reduce)
	go func() {
		out <- len(sets)
	}()
	c.hook = func() int { return len(sets) }
}

// badUseAfterDrop reads a fetched chunk set after dropping the shuffle.
// This is driver-side code (no TaskContext), so the store accessors are
// legal here — the stale read is not.
func badUseAfterDrop(st *shuffle.Store, shuffleID int) int {
	sets, _ := st.Inputs(shuffleID, 0)
	st.DropShuffle(shuffleID)
	return sets[0].NonEmpty()
}

// goodConsume materializes rows by value at the consumer's own output
// boundary: the sanctioned pattern, no findings.
func goodConsume(ctx *executor.TaskContext, shuffleID, reduce int) []int {
	var out []int
	for _, cs := range ctx.FetchShuffleChunks(shuffleID, reduce) {
		ch := cs.Chunks.([]rdd.Chunk[int, int])[reduce]
		for j := range ch.Keys {
			out = append(out, ch.Keys[j]+ch.Vals[j])
		}
	}
	return out
}

// goodDropLast drops only after the last read: no stale reference.
func goodDropLast(st *shuffle.Store, shuffleID int) int {
	sets, _ := st.Inputs(shuffleID, 0)
	n := sets[0].NonEmpty()
	st.DropShuffle(shuffleID)
	return n
}
