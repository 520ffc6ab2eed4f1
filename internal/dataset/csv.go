package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// WriteCSV writes the table to w as RFC 4180 CSV with a header row. Rows are
// read straight from the columns into one reused record.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(t.cols))
	for i := 0; i < t.n; i++ {
		for j, cc := range t.cols {
			rec[j] = cc.Dict[cc.Codes[i]]
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the named file, creating or truncating it.
func (t *Table) WriteCSVFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close %s: %w", path, cerr)
		}
	}()
	return t.WriteCSV(f)
}

// ReadCSV reads a table from r. The first record must be a header naming
// columns in schema order; the header is validated against the schema.
func ReadCSV(schema *Schema, r io.Reader) (*Table, error) {
	size := sizeHint(r)
	sc := newRecordScanner(r, schema.Len())
	header, err := sc.Read()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	names := schema.Names()
	for i, h := range header {
		if h != names[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, h, names[i])
		}
	}
	return readRows(sc, schema, size)
}

// sizeHint reports the total bytes r will yield when it exposes them (for
// example bytes.Reader, bytes.Buffer and strings.Reader), or 0 when the size
// is unknown (network bodies). readRows uses it to pre-size the code storage
// after sampling the average record length.
func sizeHint(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return 0
}

// ReadCSVFile reads a table from the named CSV file.
func ReadCSVFile(schema *Schema, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(schema, f)
}

// ReadCSVInferred reads a table from r without a pre-declared schema: the
// header names become categorical, insensitive attributes. Callers normally
// re-type the result with Schema.WithKinds and Table.WithSchema afterwards.
func ReadCSVInferred(r io.Reader) (*Table, error) {
	size := sizeHint(r)
	sc := newRecordScanner(r, 0)
	header, err := sc.Read()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		attrs[i] = Attribute{Name: h, Kind: Insensitive, Type: Categorical}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	return readRows(sc, schema, size)
}

// recordScanner splits CSV records with a plain byte scan as long as the
// input stays quote-free — the overwhelmingly common case for machine-written
// data — and hands the remaining stream to encoding/csv the moment a quote
// byte appears, so quoted fields (embedded separators, escaped quotes,
// multi-line cells) keep full RFC 4180 semantics. The fast path allocates one
// backing string per record and reuses the field slice, exactly like
// encoding/csv with ReuseRecord: returned fields are substrings of a fresh
// per-record string and safe to retain.
type recordScanner struct {
	br     *bufio.Reader
	fields []string
	// want is the expected field count; 0 means "set from the first record".
	want int
	// off counts bytes consumed by the fast path; inputOffset adds the
	// fallback reader's own offset once one exists.
	off     int64
	line    int64
	scratch []byte
	// cr is non-nil once a quote forced the switch to encoding/csv; the
	// scanner never switches back.
	cr *csv.Reader
}

func newRecordScanner(r io.Reader, want int) *recordScanner {
	return &recordScanner{br: bufio.NewReaderSize(r, 64<<10), want: want}
}

// inputOffset returns the number of input bytes consumed so far.
func (s *recordScanner) inputOffset() int64 {
	if s.cr != nil {
		return s.off + s.cr.InputOffset()
	}
	return s.off
}

// readLine returns the next raw line including its terminator, accumulating
// through scratch when the line outgrows the buffer. A final unterminated
// line is returned as-is; io.EOF only when no bytes remain.
func (s *recordScanner) readLine() ([]byte, error) {
	raw, err := s.br.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(raw) > 0) {
		return raw, nil
	}
	if err == bufio.ErrBufferFull {
		s.scratch = append(s.scratch[:0], raw...)
		for err == bufio.ErrBufferFull {
			raw, err = s.br.ReadSlice('\n')
			s.scratch = append(s.scratch, raw...)
		}
		if err == nil || (err == io.EOF && len(s.scratch) > 0) {
			return s.scratch, nil
		}
	}
	return nil, err
}

// Read returns the fields of the next record. The returned slice is reused by
// the next call; the field strings are not.
func (s *recordScanner) Read() ([]string, error) {
	if s.cr != nil {
		return s.cr.Read()
	}
	for {
		raw, err := s.readLine()
		if err != nil {
			return nil, err
		}
		s.off += int64(len(raw))
		s.line++
		rec := raw
		if n := len(rec); n > 0 && rec[n-1] == '\n' {
			rec = rec[:n-1]
		}
		if n := len(rec); n > 0 && rec[n-1] == '\r' {
			rec = rec[:n-1]
		}
		if len(rec) == 0 {
			continue // encoding/csv skips blank lines too
		}
		if bytes.IndexByte(rec, '"') >= 0 {
			// Quoted data: replay this line (with its terminator) ahead of
			// the untouched remainder through encoding/csv, permanently.
			s.off -= int64(len(raw))
			replay := append([]byte(nil), raw...)
			s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(replay), s.br))
			s.cr.FieldsPerRecord = s.want
			s.cr.ReuseRecord = true
			return s.cr.Read()
		}
		str := string(rec)
		fields := s.fields[:0]
		for {
			i := strings.IndexByte(str, ',')
			if i < 0 {
				fields = append(fields, str)
				break
			}
			fields = append(fields, str[:i])
			str = str[i+1:]
		}
		s.fields = fields
		if s.want == 0 {
			s.want = len(fields)
		} else if len(fields) != s.want {
			return nil, &csv.ParseError{StartLine: int(s.line), Line: int(s.line), Err: csv.ErrFieldCount}
		}
		return fields, nil
	}
}

// sizeSampleRows is the number of records readRows reads before it
// estimates the row count from the input size.
const sizeSampleRows = 256

// readRows streams every remaining record of sc into a new table over
// schema. It is the single ingest loop behind ReadCSV and ReadCSVInferred:
//
//   - records are split by the quote-free byte scanner above (encoding/csv
//     takes over on the first quote) and the record slice is reused;
//   - every cell is interned into its column's dictionary, so repeated
//     values share one string allocation and the columns are the table's
//     storage the moment ingest ends;
//   - the content fingerprint is folded in the same pass — each distinct
//     value is byte-hashed once when it enters the dictionary, and every
//     repeat folds the memoized 64-bit word;
//   - when the reader exposes its size (buffers, files read into memory),
//     the code storage is pre-sized from the average record length of the
//     first rows, eliminating append-doubling churn.
func readRows(sc *recordScanner, schema *Schema, size int64) (*Table, error) {
	k := schema.Len()
	sc.want = k
	b := newTableBuilder(k, 0)
	startOff := sc.inputOffset()
	for {
		rec, err := sc.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row: %w", err)
		}
		b.addRow(rec)
		if b.n == sizeSampleRows && size > 0 {
			// Pre-size the remaining storage from the sampled record length.
			consumed := sc.inputOffset() - startOff
			est := b.n + int(int64(b.n)*(size-startOff-consumed)/consumed)
			est += est / 8 // slack for shorter records ahead
			for i := range b.cols {
				b.cols[i].codes = slices.Grow(b.cols[i].codes, max(est-b.n, 0))
			}
		}
	}
	return b.table(schema), nil
}
