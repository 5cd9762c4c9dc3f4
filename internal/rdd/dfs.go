package rdd

import (
	"bytes"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/executor"
	"repro/internal/memsim"
)

// TextFileDFS reads a newline-delimited text file from the mini-HDFS with
// Hadoop's LineRecordReader semantics: one partition per block, records
// spanning block boundaries belong to the partition where they start — a
// partition skips a partial first line (its predecessor owns it) and reads
// past its block end to finish its own last line.
func TextFileDFS(d Driver, fs *dfs.FileSystem, path string) (*RDD[string], error) {
	blocks, err := fs.Blocks(path)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("rdd: %s has no blocks", path)
	}
	name := fmt.Sprintf("dfs-text:%s", path)
	n := len(blocks)
	return newRDD(d, name, n, nil, nil, func(ctx *executor.TaskContext, part int) []string {
		raw, err := fs.ReadBlock(blocks[part])
		if err != nil {
			panic(fmt.Sprintf("rdd: %s block %d vanished: %v", path, part, err))
		}
		read := int64(len(raw))

		// Skip the partial first line: it belongs to the previous
		// partition unless the previous block ended exactly on a newline.
		start := 0
		if part > 0 {
			prev, err := fs.ReadBlock(blocks[part-1])
			if err != nil {
				panic(fmt.Sprintf("rdd: %s block %d vanished: %v", path, part-1, err))
			}
			if len(prev) > 0 && prev[len(prev)-1] != '\n' {
				nl := bytes.IndexByte(raw, '\n')
				if nl < 0 {
					// The whole block is the tail of a line owned by
					// the predecessor.
					ctx.Disk(read)
					return nil
				}
				start = nl + 1
			}
		}

		// Extend past the block end to finish the last line.
		tail := []byte(nil)
		if part < n-1 && (len(raw) == 0 || raw[len(raw)-1] != '\n') {
			for next := part + 1; next < n; next++ {
				cont, err := fs.ReadBlock(blocks[next])
				if err != nil {
					panic(fmt.Sprintf("rdd: %s block %d vanished: %v", path, next, err))
				}
				nl := bytes.IndexByte(cont, '\n')
				if nl >= 0 {
					tail = append(tail, cont[:nl]...)
					read += int64(nl)
					break
				}
				tail = append(tail, cont...)
				read += int64(len(cont))
			}
		}

		joined := append(append([]byte(nil), raw[start:]...), tail...)
		out := splitLines(joined)
		ctx.Disk(read)
		size := SizeOfSlice(out)
		ctx.CPU(float64(size) * ctx.Cost.SerDePerB)
		ctx.MemSeq(memsim.Write, size)
		return out
	}), nil
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == '\n' {
			if i > start {
				out = append(out, string(b[start:i]))
			}
			start = i + 1
		}
	}
	return out
}

// SaveToDFS materializes the dataset and writes one file to the mini-HDFS,
// serialized by render (called once per partition). Each task charges
// reading its partition from the heap, serialization CPU and the disk
// write; the driver concatenates partitions in order (like saving part
// files). Returns the total bytes written.
func SaveToDFS[T any](r *RDD[T], fs *dfs.FileSystem, path string, render func(records []T) []byte) (int64, error) {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		out := r.Compute(ctx, part)
		heapBytes := SizeOfSlice(out)
		ctx.MemSeq(memsim.Read, heapBytes)
		raw := render(out)
		ctx.CPU(float64(len(raw)) * ctx.Cost.SerDePerB)
		ctx.Disk(int64(len(raw)))
		return raw
	})
	var all []byte
	for _, p := range parts {
		all = append(all, p.([]byte)...)
	}
	if err := fs.Create(path, all); err != nil {
		return 0, err
	}
	return int64(len(all)), nil
}
