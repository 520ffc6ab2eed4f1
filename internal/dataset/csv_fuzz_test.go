package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"testing"
)

// These fuzz targets pin the dual-path CSV reader (quote-free byte scanner
// with an encoding/csv fallback, csv.go) to pure encoding/csv as the oracle:
// for every input, both sides must agree on error presence, on every cell,
// and — through the cell-by-cell reference hash — on the content fingerprint
// the streaming ingest folds incrementally. Error presence, not
// text: the fallback reader starts mid-stream, so its ParseError line numbers
// legitimately differ from the oracle's.

// oracleRecords reads data with encoding/csv under the reader's contract:
// want pins the field count from the first record on (0 = set by the first
// record), and a header hitting EOF is an error like ReadCSV's
// ErrUnexpectedEOF mapping.
func oracleRecords(data []byte, want int) (header []string, rows [][]string, err error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = want
	header, err = cr.Read()
	if err != nil {
		return nil, nil, err
	}
	header = append([]string(nil), header...)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return header, rows, nil
		}
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, append([]string(nil), rec...))
	}
}

// compareTable checks the parsed table's cells and fingerprint against the
// oracle's rows. The incremental dictionary-memoized fold of readRows is
// checked against referenceRowsHash's plain cell-by-cell pass.
func compareTable(t *testing.T, tbl *Table, rows [][]string) {
	t.Helper()
	if tbl.Len() != len(rows) {
		t.Fatalf("rows = %d, oracle has %d", tbl.Len(), len(rows))
	}
	for i, want := range rows {
		got, _ := tbl.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d has %d cells, oracle has %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("cell [%d][%d] = %q, oracle %q", i, j, got[j], want[j])
			}
		}
	}
	if got, want := tbl.rowsHash().sum(), referenceRowsHash(rows); got != want {
		t.Fatalf("row-content hash = %s, reference = %s", got, want)
	}
}

var fuzzCSVSeeds = [][]byte{
	[]byte("a,b,c\n1,2,3\n4,5,6\n"),
	[]byte("a,b,c\r\n1,2,3\r\n"),
	[]byte("a,b,c\n\"x,y\",2,3\n"),         // quote switch on a data row
	[]byte("\"a\",b,c\n1,2,3\n"),           // quote switch on the header
	[]byte("a,b,c\n1,\"quo\"\"te\",3\r\n"), // escaped quotes
	[]byte("a,b,c\n\"multi\nline\",2,3\n"), // record spanning lines
	[]byte("a,b,c\n\n1,2,3\n"),             // blank line skipped
	[]byte("a,b,c\n1,2\n"),                 // field count error
	[]byte("a,b,c\n1,\"unterminated,3\n"),  // quote error
	[]byte("a,b,c\n1,2,3\r"),               // trailing \r at EOF
	[]byte("x,y\n1,2\n"),                   // header mismatch / two columns
	[]byte(""),                             // empty input
	[]byte("a,b,c\n1,2,3,4\n"),             // too many fields
	[]byte("a,a,a\n1,2,3\n"),               // duplicate header names
	[]byte("a,b,c\n1,2,3\n1,2,3\n1,2,3\n"), // repeats exercise interning
	[]byte("a,b,c\nx\rx,2,3\n"),            // interior \r kept
}

func FuzzReadCSV(f *testing.F) {
	schema, err := NewSchema(
		Attribute{Name: "a", Kind: Insensitive, Type: Categorical},
		Attribute{Name: "b", Kind: Insensitive, Type: Categorical},
		Attribute{Name: "c", Kind: Insensitive, Type: Categorical},
	)
	if err != nil {
		f.Fatal(err)
	}
	names := schema.Names()
	for _, seed := range fuzzCSVSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(schema, bytes.NewReader(data))
		header, rows, oerr := oracleRecords(data, schema.Len())
		headerOK := oerr == nil
		if headerOK {
			for i, h := range header {
				if h != names[i] {
					headerOK = false
				}
			}
		}
		if wantErr := !headerOK; (err != nil) != wantErr {
			t.Fatalf("ReadCSV error = %v, oracle error = %v (header %v)", err, oerr, header)
		}
		if err != nil {
			return
		}
		compareTable(t, tbl, rows)
	})
}

func FuzzReadCSVInferred(f *testing.F) {
	for _, seed := range fuzzCSVSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSVInferred(bytes.NewReader(data))
		header, rows, oerr := oracleRecords(data, 0)
		serr := oerr
		if oerr == nil {
			// Mirror ReadCSVInferred's header-to-schema step; schema
			// validation (duplicate or empty names) fails both sides alike.
			attrs := make([]Attribute, len(header))
			for i, h := range header {
				attrs[i] = Attribute{Name: h, Kind: Insensitive, Type: Categorical}
			}
			_, serr = NewSchema(attrs...)
		}
		if (err != nil) != (serr != nil) {
			t.Fatalf("ReadCSVInferred error = %v, oracle error = %v", err, serr)
		}
		if err != nil {
			return
		}
		compareTable(t, tbl, rows)
	})
}
