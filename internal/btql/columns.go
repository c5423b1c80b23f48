package btql

import (
	"bytes"
	"math/bits"
	"slices"
)

// Column-at-a-time evaluation. A columnar store holds a block of events
// as one slice per field; evaluating a predicate there row by row means
// gathering six fields per row to answer what is usually a question
// about one or two. Select instead evaluates each leaf comparison as one
// loop over one column into a bitmap, combines the bitmaps with the
// boolean structure of the expression, and only then hands the store the
// rows worth materialising. The store pays for — decodes, caches — only
// the columns a leaf names.

// Columns is one block of events held by column, as the caller's
// storage has them. Wide columns are fetched on demand, one call per
// column; every returned slice is read-only and holds one element per
// row under evaluation (the n of Selection.Reset).
type Columns interface {
	// Summary describes the block, or a superset of its rows: a leaf the
	// summary already decides never asks for its column.
	Summary() *Meta
	Stamps() []uint64
	Times() []uint64
	TIDs() []uint32
	// Bytes returns the byte-wide column of f (FCore, FCategory or
	// FLevel). A non-nil dict means the column holds indices into it.
	Bytes(f Field) (col, dict []uint8)
}

// bitmap holds one bit per row, row i at bit i%64 of word i/64. Bits
// past the row count are always zero.
type bitmap []uint64

func (b bitmap) fill(n int) {
	for w := range b {
		b[w] = ^uint64(0)
	}
	b.trim(n)
}

// trim clears the bits past row n-1.
func (b bitmap) trim(n int) {
	if r := uint(n) % 64; r != 0 {
		b[len(b)-1] &= 1<<r - 1
	}
}

// full reports that all n rows are set.
func (b bitmap) full(n int) bool {
	for w, word := range b {
		want := ^uint64(0)
		if r := uint(n) % 64; r != 0 && w == len(b)-1 {
			want = 1<<r - 1
		}
		if word != want {
			return false
		}
	}
	return true
}

func (b bitmap) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Selection is the set of rows of one block a query selects, built up
// by ANDing filters into it. It is tri-state, which is what keeps a
// negation over a payload match sound before anybody has read a
// payload: may holds the rows not proven to miss, yes ⊆ may the rows
// proven to match. With payload-free filters the two are equal. A
// Selection is reusable across blocks and not safe for concurrent use.
type Selection struct {
	n        int
	yes, may bitmap
	free     []bitmap // scratch for the predicate's inner nodes
}

// Reset selects all of n rows.
func (s *Selection) Reset(n int) {
	words := (n + 63) / 64
	if cap(s.yes) < words {
		s.yes, s.may, s.free = make(bitmap, words), make(bitmap, words), nil
	}
	s.n, s.yes, s.may = n, s.yes[:words], s.may[:words]
	s.yes.fill(n)
	s.may.fill(n)
}

// Exact reports that every selected row is proven to match: nothing is
// left for MatchRow to decide.
func (s *Selection) Exact() bool {
	for w := range s.may {
		if s.may[w] != s.yes[w] {
			return false
		}
	}
	return true
}

// Sure reports whether selected row i is proven to match.
func (s *Selection) Sure(i int32) bool { return s.yes[i>>6]>>(uint(i)&63)&1 != 0 }

// Rows appends the selected rows to dst in ascending order: the
// selection vector the caller materialises from.
func (s *Selection) Rows(dst []int32) []int32 {
	for w, word := range s.may {
		for word != 0 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

func (s *Selection) alloc() bitmap {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b[:len(s.may)]
	}
	return make(bitmap, len(s.may), cap(s.may))
}

func (s *Selection) and(b bitmap) {
	for w := range b {
		s.yes[w] &= b[w]
		s.may[w] &= b[w]
	}
	s.free = append(s.free, b)
}

// selectRange sets dst to the rows with lo <= col[i] <= hi. The test is
// one unsigned compare per row, and the loop has no data-dependent
// branch.
func selectRange[T uint32 | uint64](dst bitmap, col []T, lo, hi uint64) {
	width := hi - lo
	for w := range dst {
		var word uint64
		for j, x := range col[w*64 : min(w*64+64, len(col))] {
			var bit uint64
			if uint64(x)-lo <= width {
				bit = 1
			}
			word |= bit << uint(j)
		}
		dst[w] = word
	}
}

// selectSet sets dst to the rows whose col value is in set. A
// dictionary is translated once, into a table over its indices, and the
// index bytes are then tested in place.
func selectSet(dst bitmap, col, dict []uint8, set *[256]bool) {
	if dict != nil {
		var byIndex [256]bool
		for j, v := range dict {
			byIndex[j] = set[v]
		}
		set = &byIndex
	}
	for w := range dst {
		var word uint64
		for j, v := range col[w*64 : min(w*64+64, len(col))] {
			var bit uint64
			if set[v] {
				bit = 1
			}
			word |= bit << uint(j)
		}
		dst[w] = word
	}
}

// selectList sets dst to the rows whose col value is in vals, which is
// sorted: a binary search per row.
func selectList[T uint32 | uint64](dst bitmap, col []T, vals []uint64) {
	for w := range dst {
		var word uint64
		for j, x := range col[w*64 : min(w*64+64, len(col))] {
			if _, ok := slices.BinarySearch(vals, uint64(x)); ok {
				word |= 1 << uint(j)
			}
		}
		dst[w] = word
	}
}

// Select ANDs the predicate into sel, one column of c at a time.
func (p *Predicate) Select(c Columns, sel *Selection) {
	if p.kern == nil || sel.may.empty() {
		return
	}
	yes, may := p.kern.columns(c, sel)
	for w := range may {
		sel.yes[w] &= yes[w]
		sel.may[w] &= may[w]
	}
	sel.free = append(sel.free, yes, may)
}

// columns returns the node's proven-match and not-proven-miss bitmaps
// over c's rows, both owned by the caller (to be returned to s.free).
// And and Or skip their right side, and so its columns, when the left
// side has already settled every row.
func (k *kernel) columns(c Columns, s *Selection) (yes, may bitmap) {
	switch k.op {
	case kAnd:
		yes, may = k.l.columns(c, s)
		if may.empty() {
			return yes, may
		}
		ry, rm := k.r.columns(c, s)
		for w := range may {
			yes[w] &= ry[w]
			may[w] &= rm[w]
		}
		s.free = append(s.free, ry, rm)
		return yes, may
	case kOr:
		yes, may = k.l.columns(c, s)
		if yes.full(s.n) {
			return yes, may
		}
		ry, rm := k.r.columns(c, s)
		for w := range may {
			yes[w] |= ry[w]
			may[w] |= rm[w]
		}
		s.free = append(s.free, ry, rm)
		return yes, may
	case kNot:
		// A negation flips proofs and leaves doubt alone.
		may, yes = k.l.columns(c, s)
		for w := range may {
			yes[w], may[w] = ^yes[w], ^may[w]
		}
		yes.trim(s.n)
		may.trim(s.n)
		return yes, may
	case kPayload: // nothing is known until a payload is read
		yes, may = s.alloc(), s.alloc()
		clear(yes)
		may.fill(s.n)
		return yes, may
	}
	// A leaf the block's summary decides does not ask for its column.
	yes, may = s.alloc(), s.alloc()
	switch k.meta(c.Summary()) {
	case triYes:
		yes.fill(s.n)
	case triNo:
		clear(yes)
	default:
		k.compare(c, yes, s.n)
	}
	copy(may, yes)
	return yes, may
}

// compare is the leaf loop: one pass over the one column the leaf names.
func (k *kernel) compare(c Columns, dst bitmap, n int) {
	switch k.field {
	case FStamp:
		selectWide(dst, c.Stamps(), k)
	case FTime:
		selectWide(dst, c.Times(), k)
	case FTID:
		selectWide(dst, c.TIDs(), k)
	default:
		col, dict := c.Bytes(k.field)
		selectSet(dst, col, dict, &k.set)
	}
	if k.neg {
		for w := range dst {
			dst[w] = ^dst[w]
		}
		dst.trim(n)
	}
}

func selectWide[T uint32 | uint64](dst bitmap, col []T, k *kernel) {
	if k.op == kList {
		selectList(dst, col, k.vals)
	} else {
		selectRange(dst, col, k.lo, k.hi)
	}
}

// MatchRow evaluates the predicate exactly on row i of c, whose payload
// the caller supplies: the second look at a row Select left unsure.
func (p *Predicate) MatchRow(c Columns, i int32, payload []byte) bool {
	return p.kern == nil || p.kern.row(c, i, payload)
}

func (k *kernel) row(c Columns, i int32, payload []byte) bool {
	switch k.op {
	case kAnd:
		return k.l.row(c, i, payload) && k.r.row(c, i, payload)
	case kOr:
		return k.l.row(c, i, payload) || k.r.row(c, i, payload)
	case kNot:
		return !k.l.row(c, i, payload)
	case kPayload:
		return k.pm.match(payload)
	}
	var x uint64
	switch k.field {
	case FStamp:
		x = c.Stamps()[i]
	case FTime:
		x = c.Times()[i]
	case FTID:
		x = uint64(c.TIDs()[i])
	default:
		col, dict := c.Bytes(k.field)
		if x = uint64(col[i]); dict != nil {
			x = uint64(dict[col[i]])
		}
	}
	return k.test(x)
}

func (e *PayloadMatch) match(payload []byte) bool {
	if e.Prefix {
		return bytes.HasPrefix(payload, []byte(e.Needle))
	}
	return bytes.Contains(payload, []byte(e.Needle))
}
