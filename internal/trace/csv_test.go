package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustFormat(t *testing.T, name string) CSVFormat {
	t.Helper()
	f, err := FormatByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseCSVMSR(t *testing.T) {
	in := "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n" +
		"128166372003061629,src1,0,Read,16384,16384,123\n" +
		"128166372003061729,src1,0,Write,32768,20000,88\n" +
		"128166372003061629,src1,0,Write,0,1,5\n"
	recs, clamped, err := ParseCSV(strings.NewReader(in), mustFormat(t, "msr"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 0 || len(recs) != 3 {
		t.Fatalf("got %d records, %d clamped", len(recs), clamped)
	}
	// Stable sort by normalized time: the two t=0 rows keep input order.
	if recs[0].At != 0 || recs[0].Write || recs[0].LPN != 1 || recs[0].Pages != 1 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].At != 0 || !recs[1].Write || recs[1].LPN != 0 || recs[1].Pages != 1 {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	// 100 filetime ticks = 10 µs; 20000 bytes from offset 32768 spans 2 pages.
	if recs[2].At != 10_000 || !recs[2].Write || recs[2].LPN != 2 || recs[2].Pages != 2 {
		t.Fatalf("rec2 = %+v", recs[2])
	}
}

func TestParseCSVAli(t *testing.T) {
	in := "3,R,0,32768,1000\n" +
		"3,W,16384,16384,1500\n"
	recs, _, err := ParseCSV(strings.NewReader(in), mustFormat(t, "ali"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].At != 0 || recs[0].Write || recs[0].Pages != 2 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	// 500 µs later.
	if recs[1].At != 500_000 || !recs[1].Write || recs[1].LPN != 1 || recs[1].Pages != 1 {
		t.Fatalf("rec1 = %+v", recs[1])
	}
}

func TestParseCSVGeneric(t *testing.T) {
	in := "at_ns,op,lpn,pages\n500,w,7,3\n100,r,1,1\n"
	recs, _, err := ParseCSV(strings.NewReader(in), mustFormat(t, "generic"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// Sorted by normalized time; generic offsets are LPN/pages directly.
	if recs[0].At != 0 || recs[0].Write || recs[0].LPN != 1 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if recs[1].At != 400 || !recs[1].Write || recs[1].LPN != 7 || recs[1].Pages != 3 {
		t.Fatalf("rec1 = %+v", recs[1])
	}
}

func TestParseCSVClampsOversizedRows(t *testing.T) {
	in := "1,src1,0,Write,0,100000000,1\n"
	recs, clamped, err := ParseCSV(strings.NewReader(in), mustFormat(t, "msr"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 1 || recs[0].Pages != MaxRecordPages {
		t.Fatalf("clamped=%d pages=%d", clamped, recs[0].Pages)
	}
}

func TestParseCSVRowErrors(t *testing.T) {
	msr := mustFormat(t, "msr")
	cases := []struct {
		name, in, want string
	}{
		{"bad op", "1,h,0,Frob,0,1,1\n", "row 1"},
		{"negative offset", "1,h,0,Read,-5,1,1\n2,h,0,Read,0,1,1\n", "offset"},
		{"bad size", "1,h,0,Read,0,x,1\n", "size"},
		{"wrong columns mid-file", "1,h,0,Read,0,1,1\n2,h,0,Read,0,1\n", "row 2"},
		{"bad timestamp mid-file", "1,h,0,Read,0,1,1\nnope,h,0,Read,0,1,1\n", "timestamp"},
		{"empty", "", "no data rows"},
		{"header only", "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n", "no data rows"},
	}
	for _, tc := range cases {
		_, _, err := ParseCSV(strings.NewReader(tc.in), msr, 16384)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFormatByNameUnknown(t *testing.T) {
	if _, err := FormatByName("nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if got := formatNames(); len(got) != 3 || got[0] != "ali" {
		t.Fatalf("formatNames = %v", got)
	}
}

func TestLoadFileAutoDetect(t *testing.T) {
	dir := t.TempDir()

	// Binary.
	recs := []Record{{At: 5, Write: true, LPN: 2, Pages: 1}, {At: 9, LPN: 0, Pages: 4}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "t.bin")
	if err := os.WriteFile(bin, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(bin, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != recs[0] {
		t.Fatalf("binary load = %+v", back)
	}

	// CSV, dialect sniffed from the column count (5 → ali).
	csvPath := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csvPath, []byte("0,W,0,16384,100\n0,R,16384,16384,200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err = LoadFile(csvPath, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[0].Write {
		t.Fatalf("csv load = %+v", back)
	}

	// Unrecognizable.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("a,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(junk, 16384); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestSampleTrace keeps the checked-in sample honest: it must parse under
// the msr dialect, convert to the binary format, and round-trip.
func TestSampleTrace(t *testing.T) {
	recs, err := LoadFile("testdata/sample_msr.csv", 16384)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1200 {
		t.Fatalf("sample has %d records", len(recs))
	}
	var reads, writes int
	for i, r := range recs {
		if i > 0 && r.At < recs[i-1].At {
			t.Fatalf("record %d out of order", i)
		}
		if r.Pages < 1 || r.LPN < 0 {
			t.Fatalf("record %d invalid: %+v", i, r)
		}
		if r.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("sample mix degenerate: %d reads, %d writes", reads, writes)
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf)
	if err != nil || len(back) != len(recs) {
		t.Fatalf("binary round-trip: %v (%d records)", err, len(back))
	}
}
