// Package catalog defines schemas, fixed-width tuple encoding, and the
// table catalog the relational operators work over. Tuples are flat
// byte records (SHORE stores untyped objects; typing lives up here).
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// Type is a column type.
type Type uint8

const (
	// Int is a 64-bit signed integer (8 bytes).
	Int Type = iota
	// String is a fixed-width padded string.
	String
)

// Column describes one attribute.
type Column struct {
	Name string
	Type Type
	// Len is the on-disk width for String columns (Int is always 8).
	Len int
}

func (c Column) width() int {
	if c.Type == Int {
		return 8
	}
	return c.Len
}

// Schema is an ordered set of columns with precomputed offsets.
type Schema struct {
	cols    []Column
	offsets []int
	size    int
	byName  map[string]int
}

// NewSchema builds a schema. Column names must be unique.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: cols, byName: make(map[string]int, len(cols))}
	off := 0
	for i, c := range cols {
		if c.Type == String && c.Len <= 0 {
			panic(fmt.Sprintf("catalog: string column %q needs a width", c.Name))
		}
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
		s.offsets = append(s.offsets, off)
		off += c.width()
		_ = i
	}
	s.size = off
	return s
}

// NumCols returns the column count.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns column i.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Size returns the tuple width in bytes.
func (s *Schema) Size() int { return s.size }

// ColIndex returns the index of the named column; it panics on unknown
// names, which are always plan-construction bugs.
func (s *Schema) ColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("catalog: no column %q in (%s)", name, s.ColNames()))
	}
	return i
}

// HasCol reports whether the schema has a column with the given name.
func (s *Schema) HasCol(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// ColNames returns a comma-separated column list.
func (s *Schema) ColNames() string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}

// Project returns a schema of the named columns in the given order.
func (s *Schema) Project(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = s.cols[s.ColIndex(n)]
	}
	return NewSchema(cols...)
}

// Concat joins two schemas (for join outputs), prefixing duplicate
// right-side names to keep them unique.
func Concat(left, right *Schema, rightPrefix string) *Schema {
	cols := make([]Column, 0, len(left.cols)+len(right.cols))
	cols = append(cols, left.cols...)
	for _, c := range right.cols {
		if left.HasCol(c.Name) {
			c.Name = rightPrefix + c.Name
		}
		cols = append(cols, c)
	}
	return NewSchema(cols...)
}

// Tuple is one record interpreted through a schema. Buf may alias a
// page buffer; operators that retain tuples must copy.
type Tuple struct {
	Schema *Schema
	Buf    []byte
}

// Int returns integer column i.
func (t Tuple) Int(i int) int64 {
	return int64(binary.LittleEndian.Uint64(t.Buf[t.Schema.offsets[i]:]))
}

// Str returns string column i with padding trimmed.
func (t Tuple) Str(i int) string { return string(t.StrBytes(i)) }

// StrBytes returns string column i with padding trimmed, aliasing the
// tuple's buffer.
func (t Tuple) StrBytes(i int) []byte {
	off := t.Schema.offsets[i]
	return bytes.TrimRight(t.Buf[off:off+t.Schema.cols[i].Len], "\x00")
}

// Copy returns a tuple with its own buffer.
func (t Tuple) Copy() Tuple {
	buf := make([]byte, len(t.Buf))
	copy(buf, t.Buf)
	return Tuple{Schema: t.Schema, Buf: buf}
}

// Value is a dynamically-typed cell used when building tuples.
type Value struct {
	I     int64
	S     string
	IsStr bool
}

// V makes an integer value.
func V(i int64) Value { return Value{I: i} }

// SV makes a string value.
func SV(s string) Value { return Value{S: s, IsStr: true} }

// Encode builds a tuple buffer from values matching the schema.
func (s *Schema) Encode(vals []Value) []byte {
	if len(vals) != len(s.cols) {
		panic(fmt.Sprintf("catalog: encode %d values into %d columns", len(vals), len(s.cols)))
	}
	buf := make([]byte, s.size)
	for i, v := range vals {
		off := s.offsets[i]
		if s.cols[i].Type == Int {
			if v.IsStr {
				panic(fmt.Sprintf("catalog: string value for int column %q", s.cols[i].Name))
			}
			binary.LittleEndian.PutUint64(buf[off:], uint64(v.I))
		} else {
			if !v.IsStr {
				panic(fmt.Sprintf("catalog: int value for string column %q", s.cols[i].Name))
			}
			copy(buf[off:off+s.cols[i].Len], v.S)
		}
	}
	return buf
}

// Offset returns the byte offset of column i (for data-reference
// tracing).
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// Table is a catalog entry binding a name and schema to storage.
type Table struct {
	Name   string
	Schema *Schema
	// Heap is opaque here (the exec layer stores *heap.File) to keep
	// the catalog free of storage dependencies.
	Heap any
	// Indexes maps column name -> opaque *index.Tree.
	Indexes map[string]any
	// Clustered names the column the heap is physically ordered by, if
	// any ("" otherwise).
	Clustered string
}

// Catalog is the table registry.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; duplicate names panic (a wiring bug).
func (c *Catalog) Add(t *Table) {
	if _, dup := c.tables[t.Name]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", t.Name))
	}
	c.tables[t.Name] = t
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// Drop removes a table (temp cleanup).
func (c *Catalog) Drop(name string) { delete(c.tables, name) }

// Len returns the number of tables.
func (c *Catalog) Len() int { return len(c.tables) }
