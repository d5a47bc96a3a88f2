package colstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"ogdp/internal/table"
)

// nativeLE reports whether the host is little-endian; only then can
// integer vectors alias the file bytes directly.
var nativeLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// view wraps the mapped (or read) file bytes. When the base address is
// 8-byte aligned on a little-endian host, integer accessors return
// slices aliasing the mapping; otherwise they decode by copying.
type view struct {
	b     []byte
	alias bool
}

func newView(b []byte) *view {
	alias := nativeLE && len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 == 0
	return &view{b: b, alias: alias}
}

// bytes bounds-checks a block and returns it.
func (v *view) bytes(off, n uint64) ([]byte, error) {
	if off > uint64(len(v.b)) || n > uint64(len(v.b))-off {
		return nil, fmt.Errorf("block [%d, +%d) out of bounds (file is %d bytes)", off, n, len(v.b))
	}
	return v.b[off : off+n], nil
}

// elems bounds-checks a block of n elements of size bytes each. The
// count is checked before it is multiplied, so a forged count cannot
// wrap the block's length around to a small number.
func (v *view) elems(off, n, size uint64) ([]byte, error) {
	if n > uint64(len(v.b))/size {
		return nil, fmt.Errorf("block of %d %d-byte elements exceeds the file (%d bytes)", n, size, len(v.b))
	}
	return v.bytes(off, n*size)
}

func (v *view) u32s(off, n uint64) ([]uint32, error) {
	b, err := v.elems(off, n, 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if v.alias && off%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

func (v *view) i32s(off, n uint64) ([]int32, error) {
	b, err := v.elems(off, n, 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if v.alias && off%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (v *view) u64s(off, n uint64) ([]uint64, error) {
	b, err := v.elems(off, n, 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if v.alias && off%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out, nil
}

// str returns a string aliasing the block (strings need no alignment).
func (v *view) str(off, n uint64) (string, error) {
	b, err := v.bytes(off, n)
	if err != nil || n == 0 {
		return "", err
	}
	return unsafe.String(&b[0], n), nil
}

// Load reads the colstore file at path, validates its structure and
// checksums, and returns an encoding-backed table whose column slices
// alias a read-only mapping of the file, plus the content hash stamped
// at write time. The mapping intentionally lives for the remainder of
// the process once the table has been handed out (its encodings are
// shared indefinitely); it is released only when validation fails.
func Load(path string) (*table.Table, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("colstore: %w", err)
	}
	data, unmap, err := openMapping(f, fi.Size())
	if err != nil {
		return nil, 0, err
	}
	t, hash, err := decode(data)
	if err != nil {
		unmap()
		return nil, 0, fmt.Errorf("colstore: %s: %w", path, err)
	}
	return t, hash, nil
}

// decode validates and decodes a complete colstore image.
func decode(b []byte) (*table.Table, uint64, error) {
	le := binary.LittleEndian
	if uint64(len(b)) < headerSize+footerSize {
		return nil, 0, fmt.Errorf("truncated: %d bytes is smaller than any valid file", len(b))
	}
	if string(b[offMagic:offMagic+8]) != string(magic) {
		return nil, 0, fmt.Errorf("bad magic %q", b[offMagic:offMagic+8])
	}
	if ver := le.Uint32(b[offVersion:]); ver != formatVersion {
		return nil, 0, fmt.Errorf("unsupported format version %d (reader knows %d)", ver, formatVersion)
	}
	if size := le.Uint64(b[offFileSize:]); size != uint64(len(b)) {
		return nil, 0, fmt.Errorf("truncated: header declares %d bytes, file has %d", size, len(b))
	}
	dirOff := le.Uint64(b[offDirOff:])
	dataOff := le.Uint64(b[offDataOff:])
	bodyEnd := uint64(len(b)) - footerSize
	if dirOff < headerSize || dataOff < dirOff || dataOff > bodyEnd {
		return nil, 0, fmt.Errorf("inconsistent layout: dir at %d, data at %d, body ends at %d", dirOff, dataOff, bodyEnd)
	}
	if got, want := checksum(b[:offHeaderSum], b[headerSize:dataOff]), le.Uint64(b[offHeaderSum:]); got != want {
		return nil, 0, fmt.Errorf("header checksum mismatch: computed %#x, stored %#x", got, want)
	}
	if string(b[bodyEnd+8:]) != string(endMagic) {
		return nil, 0, fmt.Errorf("bad end magic %q", b[bodyEnd+8:])
	}
	if got, want := checksum(b[dataOff:bodyEnd]), le.Uint64(b[bodyEnd:]); got != want {
		return nil, 0, fmt.Errorf("body checksum mismatch: computed %#x, stored %#x", got, want)
	}

	ncols := uint64(le.Uint32(b[offNumCols:]))
	nrows := le.Uint64(b[offNumRows:])
	contentHash := le.Uint64(b[offContentHash:])
	if dirOff+dirHeadSize+ncols*dirEntrySize > dataOff {
		return nil, 0, fmt.Errorf("directory for %d columns overruns the data region", ncols)
	}
	v := newView(b)

	name, err := v.str(le.Uint64(b[dirOff:]), le.Uint64(b[dirOff+8:]))
	if err != nil {
		return nil, 0, fmt.Errorf("table name: %w", err)
	}
	cols := make([]string, ncols)
	encs := make([]*table.Encoding, ncols)
	for c := uint64(0); c < ncols; c++ {
		var d [12]uint64
		base := dirOff + dirHeadSize + c*dirEntrySize
		for i := range d {
			d[i] = le.Uint64(b[base+uint64(i)*8:])
		}
		cols[c], err = v.str(d[deNameOff], d[deNameLen])
		if err != nil {
			return nil, 0, fmt.Errorf("column %d name: %w", c, err)
		}
		encs[c], err = decodeColumn(v, &d, nrows)
		if err != nil {
			return nil, 0, fmt.Errorf("column %q: %w", cols[c], err)
		}
	}
	t, err := table.FromEncodings(name, cols, encs)
	if err != nil {
		return nil, 0, err
	}
	t.Ragged.Truncated = int(le.Uint64(b[offTruncated:]))
	t.Ragged.Padded = int(le.Uint64(b[offPadded:]))
	return t, contentHash, nil
}

// decodeColumn reconstructs one column's Encoding from its directory
// entry, aliasing the mapping wherever alignment permits.
func decodeColumn(v *view, d *[12]uint64, nrows uint64) (*table.Encoding, error) {
	dictN, hashN := d[deDictN], d[deHashN]
	// Every entry takes file bytes, so a count past the file's length
	// is forged; rejecting it keeps dictN+1 and dictN+7 from wrapping.
	if dictN > uint64(len(v.b)) {
		return nil, fmt.Errorf("dictionary of %d entries overruns the file (%d bytes)", dictN, len(v.b))
	}
	dictOffs, err := v.u32s(d[deDictOffsOff], dictN+1)
	if err != nil {
		return nil, fmt.Errorf("dict offsets: %w", err)
	}
	dictBytesLen := d[deDictBytesLen]
	dict := make([]string, dictN)
	prev := uint32(0)
	for i := uint64(0); i < dictN; i++ {
		lo, hi := dictOffs[i], dictOffs[i+1]
		if lo != prev || hi < lo || uint64(hi) > dictBytesLen {
			return nil, fmt.Errorf("dict offsets not monotonic at entry %d", i)
		}
		prev = hi
		dict[i], err = v.str(d[deDictBytesOff]+uint64(lo), uint64(hi-lo))
		if err != nil {
			return nil, fmt.Errorf("dict bytes: %w", err)
		}
	}
	codes, err := v.u32s(d[deCodesOff], nrows)
	if err != nil {
		return nil, fmt.Errorf("codes: %w", err)
	}
	counts, err := v.i32s(d[deCountsOff], dictN)
	if err != nil {
		return nil, fmt.Errorf("counts: %w", err)
	}
	nullBits, err := v.bytes(d[deNullOff], (dictN+7)/8)
	if err != nil {
		return nil, fmt.Errorf("null bitmap: %w", err)
	}
	nulls := make([]bool, dictN)
	for i := range nulls {
		nulls[i] = nullBits[i/8]&(1<<(uint(i)%8)) != 0
	}
	hashes, err := v.u64s(d[deHashesOff], hashN)
	if err != nil {
		return nil, fmt.Errorf("value hashes: %w", err)
	}
	hashCounts, err := v.i32s(d[deHashCountsOff], hashN)
	if err != nil {
		return nil, fmt.Errorf("hash counts: %w", err)
	}
	return table.EncodingFromParts(dict, codes, counts, nulls, hashes, hashCounts)
}
