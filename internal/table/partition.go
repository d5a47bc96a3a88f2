package table

import "sort"

// Partition is a stripped partition of a table's rows by a column set:
// the classes of rows that agree on every column of the set, with the
// classes of a single row left out. The rows of the remaining classes
// are stored concatenated, ascending within each class, and ends holds
// each class's end offset into rows. A row outside every class is a
// row whose tuple no other row repeats, so the projection onto the set
// has nRows − Err() distinct tuples.
//
// This is TANE's partition (Huhtala, Kärkkäinen, Porkka, Toivonen,
// 1999). Refining the partition of X by one more column a yields the
// partition of X ∪ {a} and reads only the rows inside X's classes, so
// distinct counts along a chain of column sets need no hash set and
// are exact: there is no hash to collide.
type Partition struct {
	rows []int32
	ends []int32
}

// Err is Σ(|class| − 1) over the classes: the number of rows that
// repeat the tuple of an earlier row.
func (p *Partition) Err() int { return len(p.rows) - len(p.ends) }

// Partitioner builds and refines partitions over canonical code
// streams (Table.CanonCodes). Its scratch arrays are indexed by code
// and reused across calls, so repeated refinements allocate nothing
// once the destination buffers have grown. The zero value is ready to
// use; a Partitioner is not safe for concurrent use.
type Partitioner struct {
	// stamp[c] == gen marks code c as met in the class being scanned,
	// so no per-class clearing is needed. gen advances once per class
	// and the stamps are cleared when it wraps.
	stamp []uint32
	gen   uint32
	// slot[c] is the row count of code c in the class being scanned,
	// then its next write offset in the destination (-1: single row).
	slot []int32
	seen []uint32 // codes met in the class being scanned, first-seen order
}

// fit sizes the per-code scratch for a code space of size codes.
func (z *Partitioner) fit(size int) {
	if len(z.stamp) < size {
		// Fresh stamps are zero and gen is never zero when compared.
		z.stamp = make([]uint32, size)
		z.slot = make([]int32, size)
	}
}

// next starts a new class scan and returns its generation.
func (z *Partitioner) next() uint32 {
	z.gen++
	if z.gen == 0 {
		clear(z.stamp)
		z.gen = 1
	}
	return z.gen
}

// Column sets dst to the partition of the rows by one column, given as
// its canonical codes with a code space of size: a counting sort over
// the dense codes, classes in code order.
func (z *Partitioner) Column(dst *Partition, codes []uint32, size int) {
	z.fit(size)
	slot := z.slot[:size]
	clear(slot)
	for _, c := range codes {
		slot[c]++
	}
	dst.ends = dst.ends[:0]
	n := int32(0)
	for c, k := range slot {
		if k < 2 {
			slot[c] = -1
			continue
		}
		slot[c] = n
		n += k
		dst.ends = append(dst.ends, n)
	}
	dst.rows = resize(dst.rows, int(n))
	for r, c := range codes {
		if at := slot[c]; at >= 0 {
			dst.rows[at] = int32(r)
			slot[c]++
		}
	}
}

// Refine sets dst to the partition of src's classes split by one more
// column (codes, code space size): the partition of X ∪ {a} from that
// of X. Sub-classes keep their parent's order, then first-seen order,
// and rows stay ascending. dst must not be src.
func (z *Partitioner) Refine(dst, src *Partition, codes []uint32, size int) {
	z.fit(size)
	dst.rows = resize(dst.rows, len(src.rows))[:0]
	dst.ends = dst.ends[:0]
	start := int32(0)
	for _, end := range src.ends {
		class := src.rows[start:end]
		start = end
		if len(class) == 2 {
			if codes[class[0]] == codes[class[1]] {
				dst.rows = append(dst.rows, class...)
				dst.ends = append(dst.ends, int32(len(dst.rows)))
			}
			continue
		}
		gen := z.next()
		z.seen = z.seen[:0]
		for _, r := range class {
			c := codes[r]
			if z.stamp[c] != gen {
				z.stamp[c] = gen
				z.slot[c] = 0
				z.seen = append(z.seen, c)
			}
			z.slot[c]++
		}
		base := int32(len(dst.rows))
		n := base
		for _, c := range z.seen {
			k := z.slot[c]
			if k < 2 {
				z.slot[c] = -1
				continue
			}
			z.slot[c] = n
			n += k
			dst.ends = append(dst.ends, n)
		}
		dst.rows = dst.rows[:n]
		if n == base {
			continue
		}
		for _, r := range class {
			c := codes[r]
			if at := z.slot[c]; at >= 0 {
				dst.rows[at] = r
				z.slot[c]++
			}
		}
	}
}

// Count returns the number of distinct tuples of X ∪ {a} over nRows
// rows, given src, the partition of X, and a's codes (code space
// size). It equals nRows − Err of the refined partition without
// building it: each row outside src's classes is one tuple, and each
// class adds the number of distinct a-codes among its rows.
func (z *Partitioner) Count(src *Partition, nRows int, codes []uint32, size int) int {
	z.fit(size)
	n := nRows - len(src.rows)
	start := int32(0)
	for _, end := range src.ends {
		class := src.rows[start:end]
		start = end
		if len(class) == 2 {
			if codes[class[0]] == codes[class[1]] {
				n++
			} else {
				n += 2
			}
			continue
		}
		gen := z.next()
		for _, r := range class {
			if c := codes[r]; z.stamp[c] != gen {
				z.stamp[c] = gen
				n++
			}
		}
	}
	return n
}

// Majority returns how many of nRows rows keep the most common a-code
// of their class in src, the partition of X, given a's codes (code
// space size): each class keeps the rows of its most frequent code, and
// each row outside src's classes keeps itself. nRows minus it is the
// number of rows the g3 measure of X → a removes.
func (z *Partitioner) Majority(src *Partition, nRows int, codes []uint32, size int) int {
	z.fit(size)
	keep := nRows - len(src.rows)
	start := int32(0)
	for _, end := range src.ends {
		class := src.rows[start:end]
		start = end
		gen := z.next()
		best := int32(0)
		for _, r := range class {
			c := codes[r]
			if z.stamp[c] != gen {
				z.stamp[c] = gen
				z.slot[c] = 0
			}
			z.slot[c]++
			best = max(best, z.slot[c])
		}
		keep += int(best)
	}
	return keep
}

// resize returns s with length n, reallocating only when the capacity
// is short. The contents are not preserved across a reallocation.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// partitionBy returns the partition of the rows by cols (at least one
// column), refining from the column with the largest code space, whose
// partition is usually the smallest.
func (t *Table) partitionBy(cols []int) *Partition {
	order := append([]int(nil), cols...)
	sizes := make([]int, t.NumCols())
	for _, c := range order {
		_, sizes[c] = t.CanonCodes(c)
	}
	sort.SliceStable(order, func(i, j int) bool { return sizes[order[i]] > sizes[order[j]] })
	var z Partitioner
	var bufs [2]Partition
	codes, size := t.CanonCodes(order[0])
	z.Column(&bufs[0], codes, size)
	p := &bufs[0]
	for i, c := range order[1:] {
		if p.Err() == 0 {
			break // every tuple is already unique
		}
		codes, size := t.CanonCodes(c)
		q := &bufs[(i+1)%2]
		z.Refine(q, p, codes, size)
		p = q
	}
	return p
}

// DistinctRows returns the first row of every distinct tuple of the
// projection onto cols, in ascending order: the rows a duplicate-free
// projection keeps. Null spellings compare equal (canonical codes).
// With no columns it returns the first row, if any.
func (t *Table) DistinctRows(cols []int) []int {
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	if len(cols) == 0 {
		return []int{0}
	}
	p := t.partitionBy(cols)
	drop := make([]bool, n)
	start := int32(0)
	for _, end := range p.ends {
		// Rows ascend within a class, so the first is the one kept.
		for _, r := range p.rows[start+1 : end] {
			drop[r] = true
		}
		start = end
	}
	keep := make([]int, 0, n-p.Err())
	for r, d := range drop {
		if !d {
			keep = append(keep, r)
		}
	}
	return keep
}
