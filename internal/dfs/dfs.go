// Package dfs implements a miniature Hadoop Distributed File System: a
// namenode holding the namespace and block locations, datanodes holding
// replicated fixed-size blocks, and client read/write paths. The paper's
// testbed stores Spark input/output on HDFS. No catalog workload goes
// through this package — they generate their input in place and write to
// rdd.SaveAsSink — only a pipeline that stages a file and reads it back
// (rdd.SaveToDFS, rdd.TextFileDFS; examples/trace-explorer) does.
//
// dfs is a pure data structure: byte movement is charged by the caller
// (the RDD source / sink) which knows the executor's memory binding.
package dfs

import "fmt"

// DefaultBlockSize mirrors HDFS's 128 MiB default, scaled 1/64 to suit the
// simulator's scaled datasets (2 MiB).
const DefaultBlockSize = 2 << 20

// DefaultReplication is HDFS's default replication factor.
const DefaultReplication = 3

// BlockID names one block of one file.
type BlockID struct {
	FileID int
	Index  int
}

// String renders like "blk_3_0".
func (b BlockID) String() string { return fmt.Sprintf("blk_%d_%d", b.FileID, b.Index) }

// Block is a stored chunk of a file.
type Block struct {
	ID   BlockID
	Data []byte
	// Replicas lists the datanodes holding the block, primary first.
	Replicas []int
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	id     int
	blocks []BlockID
}

// DataNode stores block replicas.
type DataNode struct {
	ID     int
	blocks map[BlockID][]byte
	used   int64
}

// FileSystem is the namenode plus its datanodes.
type FileSystem struct {
	blockSize   int64
	replication int
	nodes       []*DataNode
	files       map[string]*fileMeta
	blocks      map[BlockID]*Block
	nextFile    int
	nextNode    int // round-robin placement cursor
}

// New creates a filesystem with n datanodes. blockSize/replication <= 0
// select the defaults; replication is capped at the node count.
func New(nodes int, blockSize int64, replication int) *FileSystem {
	if nodes <= 0 {
		panic(fmt.Sprintf("dfs: %d datanodes", nodes))
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > nodes {
		replication = nodes
	}
	fs := &FileSystem{
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*fileMeta),
		blocks:      make(map[BlockID]*Block),
	}
	for i := 0; i < nodes; i++ {
		fs.nodes = append(fs.nodes, &DataNode{ID: i, blocks: make(map[BlockID][]byte)})
	}
	return fs
}

// Create writes a file from data, splitting into blocks and replicating
// across datanodes round-robin. Overwriting an existing path fails like
// HDFS (write-once semantics).
func (fs *FileSystem) Create(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("dfs: empty path")
	}
	if _, exists := fs.files[path]; exists {
		return fmt.Errorf("dfs: %s already exists (HDFS is write-once)", path)
	}
	meta := &fileMeta{id: fs.nextFile}
	fs.nextFile++
	for off, idx := int64(0), 0; off < int64(len(data)) || (off == 0 && len(data) == 0); idx++ {
		end := off + fs.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		id := BlockID{FileID: meta.id, Index: idx}
		chunk := append([]byte(nil), data[off:end]...)
		blk := &Block{ID: id, Data: chunk}
		for r := 0; r < fs.replication; r++ {
			node := fs.nodes[(fs.nextNode+r)%len(fs.nodes)]
			node.blocks[id] = chunk
			node.used += int64(len(chunk))
			blk.Replicas = append(blk.Replicas, node.ID)
		}
		fs.nextNode = (fs.nextNode + 1) % len(fs.nodes)
		fs.blocks[id] = blk
		meta.blocks = append(meta.blocks, id)
		off = end
		if len(data) == 0 {
			break
		}
	}
	fs.files[path] = meta
	return nil
}

// Blocks returns a file's block ids in order.
func (fs *FileSystem) Blocks(path string) ([]BlockID, error) {
	m, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: %s not found", path)
	}
	return append([]BlockID(nil), m.blocks...), nil
}

// ReadBlock fetches one block's payload (from its primary replica).
func (fs *FileSystem) ReadBlock(id BlockID) ([]byte, error) {
	blk, ok := fs.blocks[id]
	if !ok {
		return nil, fmt.Errorf("dfs: block %s not found", id)
	}
	return blk.Data, nil
}
