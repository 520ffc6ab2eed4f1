package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"

	"github.com/ppdp/ppdp/internal/parallel"
)

// This file implements the on-disk columnar snapshot format: a binary,
// mmap-friendly serialization of the table's dictionary-coded columns that
// lets a table be reopened in O(page-fault) instead of O(re-parse) and
// scanned without copying cell bytes onto the heap.
//
// Layout (all integers little-endian):
//
//	magic  [8]byte  "PPDPCOL1"
//	hlen   uint32   length of the JSON header
//	hcrc   uint32   CRC-32 (IEEE) of the JSON header bytes
//	header hlen bytes of JSON (snapHeader): schema, row count, the table
//	       fingerprint, and the offset/length/CRC of every column segment
//	       (segment offsets are relative to the page-aligned data start,
//	       so the header never depends on its own encoded length)
//	...    zero padding to the next page boundary
//	data   one segment per column, each starting page-aligned
//
// A column segment packs, 8-byte aligned back to back:
//
//	dictIdx  (dictLen+1) × uint32   value boundaries into the dict blob
//	ranks    dictLen × uint32       byte-lexicographic rank per code
//	codes    rows × uint32          one dictionary code per row
//	dict     blob of concatenated value bytes
//
// A segment holds only what the cells cannot give back. Whatever follows
// from the dictionary is derived from it per code, never read from the
// file: stats, numbers and the reverse index are built on first use, the
// path heap columns take. Snapshots written before this rule may carry a float
// vector and validity bytes between codes and dict, and "clean"/"float"
// header keys; the explicit dict offset steps over those bytes, the
// decoder ignores the keys, and the segment CRC still covers them.
//
// Every segment carries a CRC-32 in the header, and the header embeds the
// table's content fingerprint; OpenSnapshot verifies both, and checks that
// the ranks order the dictionary, so a torn or corrupted snapshot is refused
// instead of served. Loaded columns alias the mapping (see cast.go): codes
// and ranks are reinterpreted in place, and dictionary strings point into
// the mapped blob, so a cold table shares pages with the OS cache instead of
// the Go heap. A loaded table is an ordinary Table whose column buffers live
// in the mapping; writers install new heap columns beside the mapped ones.

// snapshotMagic identifies a columnar snapshot file.
var snapshotMagic = [8]byte{'P', 'P', 'D', 'P', 'C', 'O', 'L', '1'}

// snapshotPage is the alignment of the data region and of every column
// segment. It matches the common OS page size; larger pages (e.g. 16K on
// Apple Silicon) keep the mmap base page-aligned anyway, and 8-byte section
// alignment is all the typed views require.
const snapshotPage = 4096

// ErrSnapshotCorrupt is returned by OpenSnapshot when a snapshot fails
// structural validation, a segment CRC, or the content-fingerprint check.
var ErrSnapshotCorrupt = errors.New("dataset: snapshot corrupt")

// snapHeader is the JSON header of a snapshot file.
type snapHeader struct {
	Version     int        `json:"version"`
	Rows        int        `json:"rows"`
	Fingerprint string     `json:"fingerprint"`
	RowsFP      string     `json:"rows_fp"`
	Attrs       []snapAttr `json:"attrs"`
	Cols        []snapCol  `json:"cols"`
}

type snapAttr struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
	Type int    `json:"type"`
}

// snapCol locates one column segment. Offsets named off* are relative to the
// segment start; SegOff is relative to the page-aligned data start.
type snapCol struct {
	SegOff    int64  `json:"seg_off"`
	SegLen    int64  `json:"seg_len"`
	CRC       uint32 `json:"crc"`
	DictLen   int    `json:"dict_len"`
	DictBytes int64  `json:"dict_bytes"`
	OffRanks  int64  `json:"off_ranks"`
	OffCodes  int64  `json:"off_codes"`
	OffDict   int64  `json:"off_dict"`
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

func alignPage(n int64) int64 { return (n + snapshotPage - 1) &^ (snapshotPage - 1) }

// layoutCol computes one column's segment layout and returns the segment
// length. Subsections are 8-byte aligned; the variable-length dict blob sits
// last.
func layoutCol(rows int, cc *CodedColumn, col *snapCol) int64 {
	d := int64(len(cc.Dict))
	var dictBytes int64
	for _, v := range cc.Dict {
		dictBytes += int64(len(v))
	}
	cur := (d + 1) * 4 // dictIdx at offset 0
	cur = align8(cur)
	col.OffRanks = cur
	cur += d * 4
	cur = align8(cur)
	col.OffCodes = cur
	cur += int64(rows) * 4
	cur = align8(cur)
	col.OffDict = cur
	cur += dictBytes
	col.DictLen = int(d)
	col.DictBytes = dictBytes
	return cur
}

// segmentWriter writes one column segment, tracking offset and CRC so the
// encoder can run the same code in the layout/CRC pass (w == io.Discard) and
// the output pass.
type segmentWriter struct {
	w   io.Writer
	off int64
	crc uint32
	err error
}

func (s *segmentWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	n, err := s.w.Write(b)
	s.off += int64(n)
	s.err = err
}

var zeroPad [snapshotPage]byte

// pad writes zero bytes until off reaches target (target >= off).
func (s *segmentWriter) pad(target int64) {
	for s.err == nil && s.off < target {
		n := target - s.off
		if n > int64(len(zeroPad)) {
			n = int64(len(zeroPad))
		}
		s.write(zeroPad[:n])
	}
}

// segmentDict is one column's dictionary as the snapshot stores it: the
// cumulative value boundaries and the values concatenated into one blob.
// Both encode passes write it whole, so the CRC runs over long buffers.
type segmentDict struct {
	idx  []uint32
	blob []byte
}

func newSegmentDict(cc *CodedColumn, col *snapCol) segmentDict {
	d := segmentDict{idx: make([]uint32, len(cc.Dict)+1), blob: make([]byte, 0, col.DictBytes)}
	for i, v := range cc.Dict {
		d.idx[i] = uint32(len(d.blob))
		d.blob = append(d.blob, v...)
	}
	d.idx[len(cc.Dict)] = uint32(len(d.blob))
	return d
}

// writeSegment serializes one column segment per the layout in col.
func writeSegment(w io.Writer, cc *CodedColumn, col *snapCol, dict segmentDict) (uint32, error) {
	s := &segmentWriter{w: w}
	s.write(u32Bytes(dict.idx))
	s.pad(col.OffRanks)
	s.write(u32Bytes(cc.ranks))
	s.pad(col.OffCodes)
	s.write(u32Bytes(cc.Codes))
	s.pad(col.OffDict)
	s.write(dict.blob)
	return s.crc, s.err
}

// WriteSnapshot serializes the table in the binary columnar snapshot format.
// The stream embeds the table's Fingerprint, so OpenSnapshot (and any caller
// holding an expected fingerprint) can verify the loaded content.
func (t *Table) WriteSnapshot(w io.Writer) error {
	// Snapshots persist the row-content hasher state beside the full
	// fingerprint, so a load restores it without folding any cell.
	rows := t.rowsHash()
	h := snapHeader{Version: 1, Rows: t.n, Fingerprint: t.Fingerprint(), RowsFP: rows.sum()}
	for _, a := range t.schema.Attributes() {
		h.Attrs = append(h.Attrs, snapAttr{Name: a.Name, Kind: int(a.Kind), Type: int(a.Type)})
	}
	h.Cols = make([]snapCol, len(t.cols))

	// Pass 1: layout + CRC (the header precedes the segments it describes, so
	// segment checksums are computed before anything is written). The layout
	// walk is a cheap cursor pass; the CRC encode — the expensive part — runs
	// one worker per column when the table has a scan-worker bound, which
	// cannot change the bytes: each column's checksum depends only on its own
	// already-fixed layout.
	var cur int64
	for i, cc := range t.cols {
		cur = alignPage(cur)
		h.Cols[i].SegOff = cur
		h.Cols[i].SegLen = layoutCol(h.Rows, cc, &h.Cols[i])
		cur = h.Cols[i].SegOff + h.Cols[i].SegLen
	}
	dicts := make([]segmentDict, len(t.cols))
	crcs, err := parallel.Map(len(t.cols), t.scanParallelism(), func(i int) (uint32, error) {
		dicts[i] = newSegmentDict(t.cols[i], &h.Cols[i])
		return writeSegment(io.Discard, t.cols[i], &h.Cols[i], dicts[i])
	})
	if err != nil {
		return err
	}
	for i, crc := range crcs {
		h.Cols[i].CRC = crc
	}

	hdr, err := json.Marshal(h)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	out := &segmentWriter{w: bw}
	var fixed [16]byte
	copy(fixed[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(fixed[8:12], uint32(len(hdr)))
	binary.LittleEndian.PutUint32(fixed[12:16], crc32.ChecksumIEEE(hdr))
	out.write(fixed[:])
	out.write(hdr)
	dataStart := alignPage(out.off)
	out.pad(dataStart)

	// Pass 2: the segments themselves.
	for i, cc := range t.cols {
		out.pad(dataStart + h.Cols[i].SegOff)
		crc, err := writeSegment(bw, cc, &h.Cols[i], dicts[i])
		if err != nil {
			return err
		}
		out.off += h.Cols[i].SegLen
		if crc != h.Cols[i].CRC {
			return fmt.Errorf("dataset: snapshot encode pass mismatch on column %d", i)
		}
	}
	if out.err != nil {
		return out.err
	}
	return bw.Flush()
}

// MappedTable is a table loaded from a columnar snapshot. The table's column
// views and dictionary strings alias the underlying mapping: they stay valid
// until Close, and Close must not be called while the table (or any table
// derived from it) is still in use: derived tables share the mapped
// columns, and cells written later may share dictionary bytes with them.
// Long-running services keep mappings open for the process lifetime;
// the OS reclaims cold pages under memory pressure either way.
type MappedTable struct {
	tbl    *Table
	unmap  func() error
	size   int64
	closed bool
	// path and the header fingerprints are kept for VerifyContent.
	path        string
	rowsFP      string
	fingerprint string
}

// Table returns the loaded table.
func (m *MappedTable) Table() *Table { return m.tbl }

// Size returns the snapshot file size in bytes.
func (m *MappedTable) Size() int64 { return m.size }

// VerifyContent recomputes the row-content fingerprint from the decoded
// columns (hashing each distinct dictionary value once) and the full table
// fingerprint, and compares both against the header. OpenSnapshot already
// proves the bytes on disk are the bytes that were written (header and
// per-segment CRCs); this pass additionally proves the decoder reproduces
// the exact cell values the writer hashed, guarding against codec bugs and
// hand-forged headers. It scans every cell, so it is for integrity audits
// and tests, not the boot path.
func (m *MappedTable) VerifyContent() error {
	h := newContentHasher()
	foldRows(&h, m.tbl.n, m.tbl.cols)
	if got := h.sum(); got != m.rowsFP {
		return corrupt("%s: row-content fingerprint mismatch (got %s, want %s)", m.path, got, m.rowsFP)
	}
	if got := m.tbl.Fingerprint(); got != m.fingerprint {
		return corrupt("%s: table fingerprint mismatch (got %s, want %s)", m.path, got, m.fingerprint)
	}
	return nil
}

// Close unmaps the snapshot. The loaded table must no longer be used.
func (m *MappedTable) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	return m.unmap()
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// OpenSnapshot maps the snapshot at path and reconstructs its table with
// zero-copy column views. Structural bounds, the header CRC and every
// segment CRC are verified before the table is returned — a snapshot that
// fails any check yields ErrSnapshotCorrupt instead of a table, so corrupted
// data can never be served. The embedded content fingerprint is trusted from
// the CRC-protected header rather than recomputed cell by cell, keeping open
// cost at "hash the file once", which is what makes boot-time recovery of
// many tables instant; VerifyContent runs the full recompute on demand.
func OpenSnapshot(path string) (*MappedTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 16 {
		return nil, corrupt("%s: file too small (%d bytes)", path, size)
	}
	data, unmap, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: map snapshot %s: %w", path, err)
	}
	mt, err := snapshotFromMapping(path, data, runtime.GOMAXPROCS(0))
	if err != nil {
		_ = unmap()
		return nil, err
	}
	mt.unmap = unmap
	mt.size = size
	return mt, nil
}

// snapshotFromMapping validates and decodes a mapped snapshot. Column
// segments decode (CRC + bounds checks + dictionary views) on up to workers
// goroutines — columns are independent, and parallel.Map reports the
// lowest-indexed failing column, so corrupt snapshots yield the same error
// the sequential walk did.
func snapshotFromMapping(path string, data []byte, workers int) (*MappedTable, error) {
	if string(data[:8]) != string(snapshotMagic[:]) {
		return nil, corrupt("%s: bad magic", path)
	}
	hlen := int64(binary.LittleEndian.Uint32(data[8:12]))
	hcrc := binary.LittleEndian.Uint32(data[12:16])
	if 16+hlen > int64(len(data)) {
		return nil, corrupt("%s: header length %d exceeds file", path, hlen)
	}
	hdr := data[16 : 16+hlen]
	if crc32.ChecksumIEEE(hdr) != hcrc {
		return nil, corrupt("%s: header checksum mismatch", path)
	}
	var h snapHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, corrupt("%s: header: %v", path, err)
	}
	if h.Version != 1 {
		return nil, corrupt("%s: unsupported snapshot version %d", path, h.Version)
	}
	if h.Rows < 0 || len(h.Attrs) == 0 || len(h.Cols) != len(h.Attrs) {
		return nil, corrupt("%s: inconsistent header (%d rows, %d attrs, %d cols)",
			path, h.Rows, len(h.Attrs), len(h.Cols))
	}
	attrs := make([]Attribute, len(h.Attrs))
	for i, a := range h.Attrs {
		attrs[i] = Attribute{Name: a.Name, Kind: Kind(a.Kind), Type: Type(a.Type)}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, corrupt("%s: schema: %v", path, err)
	}

	dataStart := alignPage(16 + hlen)
	cols, err := parallel.Map(len(h.Cols), workers, func(i int) (*CodedColumn, error) {
		return decodeSegment(path, data, dataStart, h.Rows, &h.Cols[i])
	})
	if err != nil {
		return nil, err
	}
	t := &Table{schema: schema, n: h.Rows, cols: cols}
	rows, ok := parseHasher(h.RowsFP)
	if !ok {
		return nil, corrupt("%s: row-content fingerprint %q is not a hasher state", path, h.RowsFP)
	}
	t.hash.Store(&rows)
	// Cheap cross-check of the header's two fingerprints (the restored
	// hasher state makes Fingerprint a schema-hash fold, not a row scan).
	// The full cell-by-cell recompute is VerifyContent's job.
	if got := t.Fingerprint(); got != h.Fingerprint {
		return nil, corrupt("%s: table fingerprint mismatch (got %s, want %s)", path, got, h.Fingerprint)
	}
	return &MappedTable{tbl: t, path: path, rowsFP: h.RowsFP, fingerprint: h.Fingerprint}, nil
}

// slice bounds-checks one subsection of a segment and returns it.
func slice(path string, data []byte, start, length int64, what string) ([]byte, error) {
	if start < 0 || length < 0 || start > int64(len(data)) || length > int64(len(data))-start {
		return nil, corrupt("%s: %s [%d,+%d) out of bounds (file %d bytes)",
			path, what, start, length, len(data))
	}
	return data[start : start+length], nil
}

// decodeSegment verifies one column segment's CRC and builds its zero-copy
// views.
func decodeSegment(path string, data []byte, dataStart int64, rows int, col *snapCol) (*CodedColumn, error) {
	segStart := dataStart + col.SegOff
	seg, err := slice(path, data, segStart, col.SegLen, "column segment")
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(seg) != col.CRC {
		return nil, corrupt("%s: column segment at %d: checksum mismatch", path, segStart)
	}
	if col.DictLen < 0 || int64(col.DictLen) > col.SegLen/4 {
		return nil, corrupt("%s: column segment at %d: dictionary length %d invalid", path, segStart, col.DictLen)
	}
	d := int64(col.DictLen)
	idxB, err := slice(path, seg, 0, (d+1)*4, "dict index")
	if err != nil {
		return nil, err
	}
	ranksB, err := slice(path, seg, col.OffRanks, d*4, "ranks")
	if err != nil {
		return nil, err
	}
	codesB, err := slice(path, seg, col.OffCodes, int64(rows)*4, "codes")
	if err != nil {
		return nil, err
	}
	dictB, err := slice(path, seg, col.OffDict, col.DictBytes, "dict blob")
	if err != nil {
		return nil, err
	}
	idx := u32View(idxB)
	dict := make([]string, col.DictLen)
	for i := range dict {
		lo, hi := int64(idx[i]), int64(idx[i+1])
		if lo > hi || hi > col.DictBytes {
			return nil, corrupt("%s: dict entry %d bounds [%d,%d) invalid", path, i, lo, hi)
		}
		dict[i] = viewString(dictB[lo:hi])
	}
	cc := &CodedColumn{
		Codes: u32View(codesB),
		Dict:  dict,
		ranks: u32View(ranksB),
		// index stays nil: Code() builds it lazily on first use, so opening a
		// snapshot never pays O(dict) map construction per column.
	}
	if len(cc.Codes) != rows {
		return nil, corrupt("%s: column segment at %d: %d codes for %d rows", path, segStart, len(cc.Codes), rows)
	}
	for _, code := range cc.Codes {
		if int(code) >= col.DictLen {
			return nil, corrupt("%s: code %d exceeds dictionary size %d", path, code, col.DictLen)
		}
	}
	// Ranks must order the dictionary: a permutation of the codes (lexOrder
	// inverts it) under which the values strictly increase in byte order,
	// so grouping can compare ranks instead of strings.
	byRank := make([]uint32, col.DictLen) // code+1 per rank; 0 while unseen
	for code, r := range cc.ranks {
		if int(r) >= col.DictLen || byRank[r] != 0 {
			return nil, corrupt("%s: column segment at %d: ranks are not a permutation", path, segStart)
		}
		byRank[r] = uint32(code) + 1
	}
	for r := 1; r < len(byRank); r++ {
		if dict[byRank[r-1]-1] >= dict[byRank[r]-1] {
			return nil, corrupt("%s: column segment at %d: ranks do not order the dictionary", path, segStart)
		}
	}
	return cc, nil
}
