package exec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cgp/internal/db/catalog"
	"cgp/internal/db/probe"
)

// rowsIter yields fixed tuples.
type rowsIter struct {
	rows []catalog.Tuple
	pos  int
}

func (it *rowsIter) Open() error             { it.pos = 0; return nil }
func (it *rowsIter) Close() error            { return nil }
func (it *rowsIter) Schema() *catalog.Schema { return it.rows[0].Schema }

func (it *rowsIter) Next() (catalog.Tuple, bool, error) {
	if it.pos >= len(it.rows) {
		return catalog.Tuple{}, false, nil
	}
	it.pos++
	return it.rows[it.pos-1], true, nil
}

// refAggregate is the reference HashAggregate is checked against: a Go
// map from each row's group key bytes (integer columns as 8
// little-endian bytes, string columns as their bytes and a NUL) to its
// rows' count, sum, min and max of v, rendered in key-byte order.
func refAggregate(rows []catalog.Tuple, groupBy []string) string {
	type acc struct {
		group       string
		n, sum      int64
		lo, hi      int64
		initialized bool
	}
	groups := map[string]*acc{}
	for _, t := range rows {
		var key []byte
		var group strings.Builder
		for _, name := range groupBy {
			i := t.Schema.ColIndex(name)
			if t.Schema.Col(i).Type == catalog.Int {
				key = binary.LittleEndian.AppendUint64(key, uint64(t.Int(i)))
				fmt.Fprintf(&group, "%s=%d ", name, t.Int(i))
			} else {
				key = append(append(key, t.StrBytes(i)...), 0)
				fmt.Fprintf(&group, "%s=%q ", name, t.Str(i))
			}
		}
		a := groups[string(key)]
		if a == nil {
			a = &acc{group: group.String()}
			groups[string(key)] = a
		}
		v := t.Int(t.Schema.ColIndex("v"))
		a.n++
		a.sum += v
		if !a.initialized || v < a.lo {
			a.lo = v
		}
		if !a.initialized || v > a.hi {
			a.hi = v
		}
		a.initialized = true
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		a := groups[k]
		fmt.Fprintf(&b, "%sn=%d sum=%d min=%d max=%d avg=%d\n", a.group, a.n, a.sum, a.lo, a.hi, a.sum/a.n)
	}
	return b.String()
}

// render prints aggregate output rows as refAggregate does.
func render(rows []catalog.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		for i := 0; i < r.Schema.NumCols(); i++ {
			c := r.Schema.Col(i)
			if c.Type == catalog.Int {
				fmt.Fprintf(&b, "%s=%d", c.Name, r.Int(i))
			} else {
				fmt.Fprintf(&b, "%s=%q", c.Name, r.Str(i))
			}
			if i < r.Schema.NumCols()-1 {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestHashAggregateGroupsMatchReference aggregates 10,000 distinct int
// keys, 10,000 distinct string keys and 10,000 distinct (string, int)
// pairs, each key on one to three rows in shuffled order, and 2,000 int
// keys whose hashes share their top 12 bits, so that every one of them
// has the same home slot at every table size up to the 4,096 slots
// they end in and each lookup probes through the others. Each run must
// equal the map-and-sort reference row for row.
func TestHashAggregateGroupsMatchReference(t *testing.T) {
	sch := catalog.NewSchema(
		catalog.Column{Name: "i", Type: catalog.Int},
		catalog.Column{Name: "s", Type: catalog.String, Len: 12},
		catalog.Column{Name: "v", Type: catalog.Int})
	rng := rand.New(rand.NewSource(5))
	// rowsOf builds one to three rows per key, shuffled.
	rowsOf := func(n int, key func(k int) (int64, string)) []catalog.Tuple {
		var rows []catalog.Tuple
		for k := 0; k < n; k++ {
			i, s := key(k)
			for r := 0; r <= k%3; r++ {
				rows = append(rows, catalog.Tuple{Schema: sch, Buf: sch.Encode([]catalog.Value{
					catalog.V(i), catalog.SV(s), catalog.V(rng.Int63n(2001) - 1000),
				})})
			}
		}
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		return rows
	}
	// Keys whose 8-byte encodings hash to the same top 12 bits.
	var colliding []int64
	for c := int64(0); len(colliding) < 2000; c++ {
		if keyHash(binary.LittleEndian.AppendUint64(nil, uint64(c)))>>52 == 0 {
			colliding = append(colliding, c)
		}
	}
	cases := []struct {
		name    string
		groupBy []string
		rows    []catalog.Tuple
	}{
		{"int", []string{"i"}, rowsOf(10000, func(k int) (int64, string) {
			return int64(k)*2654435761 - 1<<40, "" // negative and positive; byte order is not numeric order
		})},
		{"string", []string{"s"}, rowsOf(10000, func(k int) (int64, string) {
			if k == 0 {
				return 0, "" // the empty string is a key too
			}
			return 0, strings.Repeat("z", k%4) + fmt.Sprintf("%x", k*7919) // distinct; 1 to 10 bytes
		})},
		{"string-int", []string{"s", "i"}, rowsOf(10000, func(k int) (int64, string) {
			return int64(k % 100), fmt.Sprintf("g%d", k/100)
		})},
		{"colliding", []string{"i"}, rowsOf(len(colliding), func(k int) (int64, string) {
			return colliding[k], ""
		})},
	}
	aggs := []Agg{
		{Op: Count, As: "n"}, {Op: Sum, Col: "v", As: "sum"},
		{Op: Min, Col: "v", As: "min"}, {Op: Max, Col: "v", As: "max"}, {Op: Avg, Col: "v", As: "avg"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := refAggregate(c.rows, c.groupBy)
			agg := NewHashAggregate(&Context{Arena: probe.NewArena(0)}, &rowsIter{rows: c.rows}, c.groupBy, aggs)
			out, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(out); got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%d rows, want %d; first difference at row %d:\n  got  %s\n  want %s", len(gl)-1, len(wl)-1, i, gl[i], wl[i])
					}
				}
				t.Fatalf("%d rows, want %d", len(gl)-1, len(wl)-1)
			}
		})
	}
}
