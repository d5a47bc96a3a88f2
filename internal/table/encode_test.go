package table

import (
	"strconv"
	"testing"
)

// encodeOutputs is the number of allocations an encoding's outputs
// take: the Encoding itself, Codes, Dict, DictCounts, DictNull and the
// two hash arrays.
const encodeOutputs = 7

// TestEncodeColumnAllocsBoundedByOutputs: with its map, first-seen
// list and sort scratch pooled, encodeColumn allocates its outputs and
// nothing else, however many distinct values the column holds.
func TestEncodeColumnAllocsBoundedByOutputs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	for _, distinct := range []int{10, 5000} {
		col := make([]string, 2*distinct)
		for r := range col {
			col[r] = strconv.Itoa(r % distinct)
		}
		if n := testing.AllocsPerRun(20, func() { encodeColumn(col) }); n > encodeOutputs {
			t.Errorf("encodeColumn with %d distinct values: %v allocations per call, want at most %d", distinct, n, encodeOutputs)
		}
	}
}
