// Package colstore serializes a table's dictionary encodings into a
// versioned binary columnar file and reads them back as zero-copy
// views over a read-only memory mapping, so a saved corpus can be
// served to the study without re-parsing CSVs or materializing rows.
//
// # On-disk format (version 2, little-endian)
//
// A file is header, metadata, column blocks, footer:
//
//	offset  size  field
//	0       8     magic "OGDPCOL\x01"
//	8       4     format version (2)
//	12      4     column count
//	16      8     row count
//	24      8     content hash (FNV-64a of the CSV serialization)
//	32      8     ragged cells truncated at ingest
//	40      8     ragged cells padded at ingest
//	48      8     directory offset
//	56      8     data offset (start of the column blocks)
//	64      8     total file size (truncation guard)
//	72      8     header checksum (CRC-32C, zero-extended)
//	80      ...   table name (offset/length in the directory region)
//
// The directory holds one fixed-size entry per column giving the
// dictionary and hash-block sizes and the absolute offset of each
// block. All blocks are 8-byte aligned so integer views can be taken
// directly over the mapping. Per column, in file order:
//
//	dict offsets   (dictN+1) × uint32, prefix offsets into dict bytes
//	dict bytes     concatenated distinct values, ascending byte order
//	codes          nrows × uint32, one dictionary code per row
//	counts         dictN × int32 multiplicities
//	null bitmap    (dictN+7)/8 bytes, bit i set when entry i is null
//	value hashes   hashN × uint64 ascending distinct non-null hashes
//	hash counts    hashN × int32 multiplicities aligned with hashes
//
// The footer is the CRC-32C checksum of the column blocks, zero-extended
// to 8 bytes, followed by the end magic "OGDPEND\x01". The header checksum covers everything
// before the data offset (except the checksum field itself), so a
// reader validates structure before trusting any offset, and the body
// checksum detects bit rot in the blocks themselves.
//
// # Versioning rules
//
// The version field is bumped on any incompatible layout change;
// readers reject versions they do not know rather than guessing. New
// optional trailing blocks may be added without a bump only if older
// readers can ignore them through the existing offsets (the file size
// field guards the footer position, so additions require a bump in
// practice — prefer bumping). Version 2 replaced version 1's byte-serial
// FNV-64a checksums with CRC-32C; a version-1 file is rejected, and a
// corpus loader then re-parses the table's CSV.
//
// # Reading
//
// Load validates magic, version, size, and both checksums, then
// reconstructs one table.Encoding per column whose slices alias the
// mapping (dictionary strings via unsafe.String, integer vectors via
// unsafe.Slice). The mapping is read-only and intentionally lives for
// the remainder of the process once a table has been handed out;
// Encoding immutability does the rest. On platforms without mmap — or
// when the fallback buffer is misaligned — the same file is decoded by
// copying, trading memory for portability.
package colstore
