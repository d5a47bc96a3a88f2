package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"ogdp/internal/table"
)

// Ext is the file extension of colstore files, kept alongside the CSV
// they were serialized from.
const Ext = ".col"

const (
	formatVersion = 2

	headerSize   = 80     // fixed header; strings region follows
	dirHeadSize  = 16     // table-name offset + length
	dirEntrySize = 12 * 8 // per-column directory entry
	footerSize   = 16     // body checksum + end magic
)

// Fixed header field offsets (see doc.go for the layout).
const (
	offMagic       = 0
	offVersion     = 8
	offNumCols     = 12
	offNumRows     = 16
	offContentHash = 24
	offTruncated   = 32
	offPadded      = 40
	offDirOff      = 48
	offDataOff     = 56
	offFileSize    = 64
	offHeaderSum   = 72
)

// Per-column directory entry field indices (each a uint64).
const (
	deDictN = iota
	deHashN
	deNameOff
	deNameLen
	deDictOffsOff
	deDictBytesOff
	deDictBytesLen
	deCodesOff
	deCountsOff
	deNullOff
	deHashesOff
	deHashCountsOff
)

var (
	magic    = []byte("OGDPCOL\x01")
	endMagic = []byte("OGDPEND\x01")
)

// FNV-64a, matching table.HashValue so content hashes computed by any
// layer agree.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// castagnoli is the CRC-32C table; crc32 runs it on the CPU's CRC
// instructions where there are any.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C over the concatenation of the given byte ranges,
// zero-extended into the 8-byte checksum fields. Load verifies the
// whole body with it, so it must run far faster than the byte-serial
// FNV-64a that HashBytes is.
func checksum(parts ...[]byte) uint64 {
	var c uint32
	for _, p := range parts {
		c = crc32.Update(c, castagnoli, p)
	}
	return uint64(c)
}

// HashBytes is FNV-64a over b: the hash stamped into the header as the
// content hash of the CSV serialization a colstore file was built from.
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Marshal serializes the table's dictionary encodings into the
// version-2 binary format. contentHash identifies the raw serialization
// the encodings were derived from (typically HashBytes of the CSV); a
// reader hands it back so loaders can detect stale colstore files.
func Marshal(t *table.Table, contentHash uint64) ([]byte, error) {
	ncols := t.NumCols()
	nrows := t.NumRows()
	encs := make([]*table.Encoding, ncols)
	for c := range encs {
		encs[c] = t.Encoding(c)
	}

	// Lay out the metadata region: fixed header, strings (table name
	// then column names), directory, then the 8-aligned column blocks.
	cursor := uint64(headerSize)
	nameOff, nameLen := cursor, uint64(len(t.Name))
	cursor += nameLen
	colNameOff := make([]uint64, ncols)
	for c, n := range t.Cols {
		colNameOff[c] = cursor
		cursor += uint64(len(n))
	}
	dirOff := align8(cursor)
	dataOff := align8(dirOff + dirHeadSize + uint64(ncols)*dirEntrySize)

	dir := make([][12]uint64, ncols)
	cursor = dataOff
	block := func(size uint64) uint64 {
		off := align8(cursor)
		cursor = off + size
		return off
	}
	for c, e := range encs {
		dictN := uint64(len(e.Dict))
		var dictBytes uint64
		for _, v := range e.Dict {
			dictBytes += uint64(len(v))
		}
		if dictBytes > math.MaxUint32 {
			return nil, fmt.Errorf("colstore: %s column %q: dictionary of %d bytes exceeds the format's 4 GiB limit", t.Name, t.Cols[c], dictBytes)
		}
		hashN := uint64(len(e.ValueHashes()))
		d := &dir[c]
		d[deDictN] = dictN
		d[deHashN] = hashN
		d[deNameOff] = colNameOff[c]
		d[deNameLen] = uint64(len(t.Cols[c]))
		d[deDictOffsOff] = block((dictN + 1) * 4)
		d[deDictBytesOff] = block(dictBytes)
		d[deDictBytesLen] = dictBytes
		d[deCodesOff] = block(uint64(nrows) * 4)
		d[deCountsOff] = block(dictN * 4)
		d[deNullOff] = block((dictN + 7) / 8)
		d[deHashesOff] = block(hashN * 8)
		d[deHashCountsOff] = block(hashN * 4)
	}
	bodyEnd := align8(cursor)
	fileSize := bodyEnd + footerSize

	buf := make([]byte, fileSize)
	le := binary.LittleEndian
	copy(buf[offMagic:], magic)
	le.PutUint32(buf[offVersion:], formatVersion)
	le.PutUint32(buf[offNumCols:], uint32(ncols))
	le.PutUint64(buf[offNumRows:], uint64(nrows))
	le.PutUint64(buf[offContentHash:], contentHash)
	le.PutUint64(buf[offTruncated:], uint64(t.Ragged.Truncated))
	le.PutUint64(buf[offPadded:], uint64(t.Ragged.Padded))
	le.PutUint64(buf[offDirOff:], dirOff)
	le.PutUint64(buf[offDataOff:], dataOff)
	le.PutUint64(buf[offFileSize:], fileSize)

	copy(buf[nameOff:], t.Name)
	for c, n := range t.Cols {
		copy(buf[colNameOff[c]:], n)
	}
	le.PutUint64(buf[dirOff:], nameOff)
	le.PutUint64(buf[dirOff+8:], nameLen)
	for c := range dir {
		base := dirOff + dirHeadSize + uint64(c)*dirEntrySize
		for i, v := range dir[c] {
			le.PutUint64(buf[base+uint64(i)*8:], v)
		}
	}

	for c, e := range encs {
		d := &dir[c]
		var off uint32
		for i, v := range e.Dict {
			le.PutUint32(buf[d[deDictOffsOff]+uint64(i)*4:], off)
			copy(buf[d[deDictBytesOff]+uint64(off):], v)
			off += uint32(len(v))
		}
		le.PutUint32(buf[d[deDictOffsOff]+d[deDictN]*4:], off)
		for r, code := range e.Codes {
			le.PutUint32(buf[d[deCodesOff]+uint64(r)*4:], code)
		}
		for i, n := range e.DictCounts {
			le.PutUint32(buf[d[deCountsOff]+uint64(i)*4:], uint32(n))
		}
		for i, null := range e.DictNull {
			if null {
				buf[d[deNullOff]+uint64(i)/8] |= 1 << (uint(i) % 8)
			}
		}
		for i, h := range e.ValueHashes() {
			le.PutUint64(buf[d[deHashesOff]+uint64(i)*8:], h)
		}
		for i, n := range e.ValueHashCounts() {
			le.PutUint32(buf[d[deHashCountsOff]+uint64(i)*4:], uint32(n))
		}
	}

	le.PutUint64(buf[offHeaderSum:], checksum(buf[:offHeaderSum], buf[headerSize:dataOff]))
	le.PutUint64(buf[bodyEnd:], checksum(buf[dataOff:bodyEnd]))
	copy(buf[bodyEnd+8:], endMagic)
	return buf, nil
}

// WriteFile atomically serializes t to path (temp file in the same
// directory, then rename) and returns the number of bytes written.
func WriteFile(path string, t *table.Table, contentHash uint64) (int64, error) {
	b, err := Marshal(t, contentHash)
	if err != nil {
		return 0, err
	}
	if err := AtomicWrite(path, b, false); err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}

// AtomicWrite writes data to path via a temp file in the same
// directory plus rename, so readers never observe a partial file. With
// sync set the file is fsynced before the rename, making the write
// crash-durable — reserve it for manifests, where losing the file
// would orphan the rest of the corpus.
func AtomicWrite(path string, data []byte, sync bool) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	return nil
}
