package values

import "strings"

// ColumnType is the column-level data type used throughout the study.
// It refines the scalar Kind with the column-level distinctions of
// §5.3 of the paper: integer columns whose values form an incremental
// sequence are separated from general integers, and low-cardinality
// text columns are separated from free-form strings as categorical.
type ColumnType int

// Column-level types. The zero value is ColUnknown.
const (
	ColUnknown ColumnType = iota
	ColAllNull
	ColBool
	ColIncrementalInt
	ColInt
	ColFloat
	ColTimestamp
	ColGeo
	ColCategorical
	ColString
)

var colTypeNames = [...]string{
	"unknown", "all-null", "bool", "incremental integer", "integer",
	"float", "timestamp", "geo-spatial", "categorical", "string",
}

func (t ColumnType) String() string {
	if int(t) < len(colTypeNames) {
		return colTypeNames[t]
	}
	return "invalid"
}

// IsNumeric reports whether the column type belongs to the broad
// "number" class of Table 4 (integers, incremental integers, floats).
func (t ColumnType) IsNumeric() bool {
	switch t {
	case ColIncrementalInt, ColInt, ColFloat:
		return true
	}
	return false
}

// IsText reports whether the column type belongs to the broad "text"
// class of Table 4. Following the paper's two-way split, everything
// that is not numeric and not entirely null counts as text (timestamps
// and geo-spatial values are stored as text in CSVs).
func (t ColumnType) IsText() bool {
	switch t {
	case ColBool, ColTimestamp, ColGeo, ColCategorical, ColString:
		return true
	}
	return false
}

// BroadClass returns "text", "number", or "all-null" for Table 4
// style grouping.
func (t ColumnType) BroadClass() string {
	switch {
	case t.IsNumeric():
		return "number"
	case t == ColAllNull, t == ColUnknown:
		return "all-null"
	default:
		return "text"
	}
}

// categoricalMaxUnique is the largest distinct-value count a text
// column may have and still be considered categorical. Domains like
// species, fund codes, or industries have tens of values; free-form
// strings (names, descriptions) have many more.
const categoricalMaxUnique = 100

// categoricalMaxScore is the largest uniqueness score (distinct/total)
// a text column may have and still be considered categorical: values
// must actually repeat for the column to act as a category.
const categoricalMaxScore = 0.5

// categoricalLookupMaxUnique bounds the closed-domain lookup case: a
// text column whose table has roughly one row per value (a species or
// fund-code lookup table) is a categorical domain even though nothing
// repeats within the table.
const categoricalLookupMaxUnique = 60

// InferOptions tunes column type inference.
type InferOptions struct {
	// Dominance is the fraction of non-null values that must agree with
	// a kind for the column to take that type. Defaults to 0.95.
	Dominance float64
	// IncrementalSlack is the allowed gap ratio for incremental integer
	// detection: a column is incremental if its distinct values are
	// near-contiguous, i.e. (max-min+1) <= slack * distinct. Defaults to
	// 1.05.
	IncrementalSlack float64
}

func (o InferOptions) withDefaults() InferOptions {
	if o.Dominance <= 0 {
		o.Dominance = 0.95
	}
	if o.IncrementalSlack <= 0 {
		o.IncrementalSlack = 1.05
	}
	return o
}

// Infer determines the column-level type of the given raw values using
// default options.
func Infer(vals []string) ColumnType {
	return InferWith(vals, InferOptions{})
}

// InferWith determines the column-level type of the given raw values.
//
// The procedure mirrors the study's methodology: nulls are excluded,
// then the dominant scalar kind decides the base type; integer columns
// with near-contiguous distinct values become incremental integers;
// low-cardinality repetitive text becomes categorical.
func InferWith(vals []string, opts InferOptions) ColumnType {
	// Deduplicate first so each distinct value is classified once; every
	// signal below is an aggregate over (value, multiplicity) pairs, so
	// the result is identical to classifying each cell.
	idx := make(map[string]int, 64)
	var distinct []string
	var counts []int32
	for _, v := range vals {
		if i, ok := idx[v]; ok {
			counts[i]++
			continue
		}
		idx[v] = len(distinct)
		distinct = append(distinct, v)
		counts = append(counts, 1)
	}
	return InferCounted(distinct, counts, opts)
}

// InferCounted determines the column-level type from a column's
// dictionary encoding: the distinct raw values with their
// multiplicities. It returns exactly what InferWith returns on the
// expanded column but classifies each distinct value once, which is
// what makes profiling repetitive columns cheap.
func InferCounted(distinct []string, counts []int32, opts InferOptions) ColumnType {
	opts = opts.withDefaults()

	var (
		nonNull             int
		nBool, nInt, nFloat int
		nTime, nGeo         int
		intMin, intMax      int64
		intSeen             bool
		nDistinct           int
		intDistinct         int // distinct values ParseInt accepts, for isIncremental
		sumLen              int // total length of distinct non-null values, for shortValues
	)
	for i, v := range distinct {
		mult := 1
		if counts != nil {
			mult = int(counts[i])
		}
		if mult <= 0 || IsNull(v) {
			continue
		}
		nonNull += mult
		nDistinct++
		sumLen += len(v)
		k, n := kindOf(v)
		switch k {
		case KindBool:
			nBool += mult
		case KindInt:
			nInt += mult
			// KindOf trims the value, ParseInt does not: a padded
			// integer counts toward nInt but enters the range as 0 and
			// is not one of the intDistinct values ParseInt accepts.
			if len(strings.TrimSpace(v)) == len(v) {
				intDistinct++
			} else {
				n = 0
			}
			if !intSeen || n < intMin {
				intMin = n
			}
			if !intSeen || n > intMax {
				intMax = n
			}
			intSeen = true
		case KindFloat:
			nFloat += mult
		case KindTimestamp:
			nTime += mult
		case KindGeo:
			nGeo += mult
		}
	}
	if nonNull == 0 {
		return ColAllNull
	}
	need := int(opts.Dominance * float64(nonNull))
	if need < 1 {
		need = 1
	}
	switch {
	case nBool >= need:
		return ColBool
	case nInt >= need:
		if isIncremental(intDistinct, intMin, intMax, opts.IncrementalSlack) {
			return ColIncrementalInt
		}
		return ColInt
	case nInt+nFloat >= need:
		return ColFloat
	case nTime >= need:
		return ColTimestamp
	case nGeo >= need:
		return ColGeo
	}
	// Text column: categorical if it has few distinct values that
	// repeat, or if it is the column of a closed-domain lookup table
	// (roughly one row per value over a small vocabulary).
	score := float64(nDistinct) / float64(nonNull)
	if nDistinct <= categoricalMaxUnique && score <= categoricalMaxScore {
		return ColCategorical
	}
	if nDistinct <= categoricalLookupMaxUnique && nonNull <= 2*nDistinct && nDistinct > 0 && sumLen/nDistinct <= 24 {
		return ColCategorical
	}
	return ColString
}

// isIncremental reports whether the distinct integer values are
// near-contiguous, the signature of sequential identifier columns such
// as objectid (§5.2, Anecdote 1). n is the number of distinct values
// that parse as integers; at least 3 are required.
func isIncremental(n int, min, max int64, slack float64) bool {
	if n < 3 {
		return false
	}
	span := max - min + 1
	if span <= 0 { // overflow guard
		return false
	}
	return float64(span) <= slack*float64(n)
}
