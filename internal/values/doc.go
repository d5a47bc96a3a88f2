// Package values implements the value-level model of the OGDP study:
// null detection, scalar parsing, and column data type inference.
//
// The paper (§3.3) detects nulls as empty cells plus a manual list of
// popular null spellings. Section 5.3 classifies join columns into the
// data types {incremental integer, integer, categorical, string,
// timestamp, geo-spatial}; Table 4 additionally groups columns into the
// two broad classes text and numeric. This package implements all three
// granularities.
//
// Classifying a cell allocates nothing unless the cell parses. The
// parsers (strconv, time.Parse) still decide every value, but each sits
// behind checks that are necessary conditions for it to succeed: a
// leading byte, a separator position, an alphabet. A value skips a
// parser only when that parser provably could not accept it, so no
// error value is built for it, and every result, down to the
// time.Time ParseTimestamp returns, is what the unguarded parsers
// return. Case-insensitive matches fold ASCII only (lowerEq), never
// strings.EqualFold, which would fold "falſe" onto "false". The tests
// hold this to verbatim copies of the unguarded classifier
// (oracle_test.go) on the study's whole vocabulary and under
// FuzzClassify.
package values
