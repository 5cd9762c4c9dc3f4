package dfs

import (
	"bytes"
	"testing"
	"testing/quick"
)

// totalUsed is the cluster-wide stored bytes, replication included.
func totalUsed(fs *FileSystem) int64 {
	var t int64
	for _, n := range fs.nodes {
		t += n.used
	}
	return t
}

// readAll concatenates a file's blocks, the way a client reads it.
func readAll(fs *FileSystem, path string) ([]byte, error) {
	ids, err := fs.Blocks(path)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, id := range ids {
		data, err := fs.ReadBlock(id)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

func TestCreateReadRoundtrip(t *testing.T) {
	fs := New(4, 1024, 2)
	data := bytes.Repeat([]byte("hibench!"), 1000) // 8000 bytes -> 8 blocks
	if err := fs.Create("/input/sort.dat", data); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(fs, "/input/sort.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs from written data")
	}
	blocks, _ := fs.Blocks("/input/sort.dat")
	if len(blocks) != 8 {
		t.Fatalf("blocks = %d, want 8 (1024B each)", len(blocks))
	}
}

func TestWriteOnceSemantics(t *testing.T) {
	fs := New(2, 0, 0)
	if err := fs.Create("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/a", []byte("y")); err == nil {
		t.Fatal("overwrite accepted; HDFS is write-once")
	}
	if err := fs.Create("", nil); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestReplicationFactor(t *testing.T) {
	fs := New(5, 100, 3)
	fs.Create("/f", make([]byte, 250)) // 3 blocks
	blocks, _ := fs.Blocks("/f")
	for _, id := range blocks {
		blk, err := fs.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk) == 0 {
			t.Fatal("empty block payload")
		}
	}
	// Each block replicated 3x: total = 250 * 3.
	if totalUsed(fs) != 750 {
		t.Fatalf("total used = %d, want 750", totalUsed(fs))
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(2, 0, 5)
	if fs.replication != 2 {
		t.Fatalf("replication = %d, want capped at 2", fs.replication)
	}
}

func TestBlockPlacementSpreads(t *testing.T) {
	fs := New(4, 64, 1)
	fs.Create("/big", make([]byte, 64*8)) // 8 blocks over 4 nodes
	for i, n := range fs.nodes {
		if len(n.blocks) != 2 {
			t.Fatalf("node %d holds %d blocks, want 2 (round-robin)", i, len(n.blocks))
		}
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(2, 0, 0)
	if err := fs.Create("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(fs, "/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %d bytes", len(got))
	}
}

func TestMissingPathsError(t *testing.T) {
	fs := New(1, 0, 0)
	if _, err := readAll(fs, "/nope"); err == nil {
		t.Error("read of missing file succeeded")
	}
	if _, err := fs.Blocks("/nope"); err == nil {
		t.Error("blocks of missing file succeeded")
	}
	if _, err := fs.ReadBlock(BlockID{9, 9}); err == nil {
		t.Error("read of missing block succeeded")
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero datanodes did not panic")
		}
	}()
	New(0, 0, 0)
}

// Property: any payload round-trips through create/read, and total used
// space is size x replication.
func TestRoundtripProperty(t *testing.T) {
	prop := func(data []byte, nodes, repl uint8) bool {
		n := int(nodes%6) + 1
		r := int(repl%4) + 1
		fs := New(n, 64, r)
		if err := fs.Create("/p", data); err != nil {
			return false
		}
		got, err := readAll(fs, "/p")
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		eff := r
		if eff > n {
			eff = n
		}
		return totalUsed(fs) == int64(len(data)*eff)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
