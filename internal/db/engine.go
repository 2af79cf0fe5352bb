// Package db assembles the database system: storage manager, lock
// manager, transactions, B+-trees, catalog and relational operators,
// with the layered structure of Figure 1 (parser / optimizer /
// scheduler / operators / storage manager). It owns the instrumented
// function registry and the cooperative scheduler that interleaves
// concurrent queries into one trace stream.
package db

import (
	"fmt"

	"cgp/internal/db/catalog"
	"cgp/internal/db/exec"
	"cgp/internal/db/heap"
	"cgp/internal/db/index"
	"cgp/internal/db/lock"
	"cgp/internal/db/probe"
	"cgp/internal/db/storage"
	"cgp/internal/db/txn"
	"cgp/internal/isa"
	"cgp/internal/program"
)

// Funcs aggregates every layer's instrumented-function IDs.
type Funcs struct {
	Storage storage.Funcs
	Lock    lock.Funcs
	Txn     txn.Funcs
	Heap    heap.Funcs
	Index   index.Funcs
	Exec    exec.Funcs
}

// BuildRegistry registers the whole system's functions in layer order
// (the link order of the O5 binary: lower layers first, as a linker
// would emit libraries after application code — a deliberately cache-
// unfriendly baseline, like any unoptimized layout).
func BuildRegistry() (*program.Registry, Funcs) {
	reg := program.NewRegistry()
	// The instrumented skeleton names ~60 functions; a real storage
	// manager plus operator layer carries several times that much code
	// on its hot paths, so sizes are scaled up to a realistic footprint
	// (a few hundred KB of text, several times the 32KB L1I).
	reg.SetSizeScale(6.0)
	var fns Funcs
	fns.Exec = exec.RegisterFuncs(reg)
	fns.Heap = heap.RegisterFuncs(reg)
	fns.Index = index.RegisterFuncs(reg)
	fns.Storage = storage.RegisterFuncs(reg)
	fns.Lock = lock.RegisterFuncs(reg)
	fns.Txn = txn.RegisterFuncs(reg)
	// Every sizable function gets private helpers (comparators, slot
	// accessors, wrappers): the bulk of a real binary's function count.
	reg.GenerateHelpers(400, 700, 48, 200)
	return reg, fns
}

// Options configures an engine instance.
type Options struct {
	// BufferFrames is the buffer-pool size in pages (default 4096 =
	// 16MB, enough to keep the paper's workloads memory-resident).
	BufferFrames int
}

// Table couples a catalog entry to its storage.
type Table struct {
	Name      string
	Schema    *catalog.Schema
	Heap      *heap.File
	Indexes   map[string]*index.Tree
	Clustered string
}

// Engine is one database instance.
type Engine struct {
	Reg   *program.Registry
	Fns   Funcs
	Pr    *probe.Probe
	Disk  *storage.Disk
	Pool  *storage.BufferPool
	Locks *lock.Manager
	Txns  *txn.Manager
	Arena *probe.Arena

	tables map[string]*Table
	tmpSeq int
}

// NewEngine builds an empty database system.
func NewEngine(opts Options) *Engine {
	if opts.BufferFrames == 0 {
		opts.BufferFrames = 4096
	}
	reg, fns := BuildRegistry()
	pr := probe.New(nil)
	disk := storage.NewDisk()
	pool := storage.NewBufferPool(disk, opts.BufferFrames, pr, fns.Storage)
	locks := lock.NewManager(pr, fns.Lock)
	log := txn.NewLog(pr, fns.Txn)
	txns := txn.NewManager(locks, log, pr, fns.Txn)
	return &Engine{
		Reg:    reg,
		Fns:    fns,
		Pr:     pr,
		Disk:   disk,
		Pool:   pool,
		Locks:  locks,
		Txns:   txns,
		Arena:  probe.NewArena(isa.StackBase),
		tables: make(map[string]*Table),
	}
}

// CreateTable makes an empty table.
func (e *Engine) CreateTable(name string, sch *catalog.Schema) (*Table, error) {
	if _, dup := e.tables[name]; dup {
		return nil, fmt.Errorf("db: table %q exists", name)
	}
	f, err := heap.Create(name, e.Pool, e.Locks, e.Pr, e.Fns.Heap)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: sch, Heap: f, Indexes: make(map[string]*index.Tree)}
	e.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (e *Engine) Table(name string) (*Table, error) {
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// MustTable returns a table or panics (plan construction).
func (e *Engine) MustTable(name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// CreateIndex builds a B+-tree on an integer column from the table's
// current contents. clustered records that the heap is physically
// ordered by this column (the loader's responsibility).
func (e *Engine) CreateIndex(t *txn.Txn, tableName, col string, clustered bool) (*index.Tree, error) {
	tbl, err := e.Table(tableName)
	if err != nil {
		return nil, err
	}
	if tbl.Schema.Col(tbl.Schema.ColIndex(col)).Type != catalog.Int {
		return nil, fmt.Errorf("db: index on non-integer column %s.%s", tableName, col)
	}
	tree, err := index.Create(tableName+"_"+col, e.Pool, e.Pr, e.Fns.Index)
	if err != nil {
		return nil, err
	}
	ci := tbl.Schema.ColIndex(col)
	scan := tbl.Heap.OpenScan(t)
	defer scan.Close()
	for {
		rec, rid, ok, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tup := catalog.Tuple{Schema: tbl.Schema, Buf: rec}
		if err := tree.Insert(tup.Int(ci), rid); err != nil {
			return nil, err
		}
	}
	tbl.Indexes[col] = tree
	if clustered {
		tbl.Clustered = col
	}
	return tree, nil
}

// Index returns the tree on table.col.
func (e *Engine) Index(tableName, col string) (*index.Tree, error) {
	tbl, err := e.Table(tableName)
	if err != nil {
		return nil, err
	}
	tree, ok := tbl.Indexes[col]
	if !ok {
		return nil, fmt.Errorf("db: no index on %s.%s", tableName, col)
	}
	return tree, nil
}

// TempFile creates a scratch heap file (not in the catalog).
func (e *Engine) TempFile(name string) (*heap.File, error) {
	e.tmpSeq++
	return heap.Create(fmt.Sprintf("tmp_%s_%d", name, e.tmpSeq), e.Pool, e.Locks, e.Pr, e.Fns.Heap)
}

// NewContext builds an operator context for one transaction.
func (e *Engine) NewContext(t *txn.Txn) *exec.Context {
	return &exec.Context{
		Txn:      t,
		Pr:       e.Pr,
		Fns:      e.Fns.Exec,
		Arena:    e.Arena,
		TempFile: e.TempFile,
	}
}

// InsertRow encodes and stores one row (bulk loading).
func (e *Engine) InsertRow(t *txn.Txn, tbl *Table, vals []catalog.Value) (storage.RID, error) {
	return tbl.Heap.CreateRec(t, tbl.Schema.Encode(vals))
}

// RunQuery executes a plan outside the scheduler (correctness tests,
// examples): it opens, drains, optionally materializes into target, and
// returns the row count.
func (e *Engine) RunQuery(ctx *exec.Context, it exec.Iterator, target *heap.File) (int64, error) {
	if target != nil {
		return exec.Materialize(ctx, it, target)
	}
	return exec.Run(it, nil)
}
