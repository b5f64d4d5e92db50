package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

// Records returns a copy of the recorded entries in arrival order: the
// reference Segments is checked against.
func (rc *Recorder) Records() []Record {
	older, newer := rc.Segments()
	out := make([]Record, 0, len(older)+len(newer))
	out = append(out, older...)
	return append(out, newer...)
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 100, Write: true, LPN: 42, Pages: 8},
		{At: 200, Write: false, LPN: 7, Pages: 1},
		{At: 300, Write: false, LPN: 1 << 40, Pages: 64},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := read(bytes.NewReader([]byte("not a trace file..."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Record{{At: 1, LPN: 2, Pages: 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := read(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ats []int64, lpns []int64, pages []uint16) bool {
		n := len(ats)
		if len(lpns) < n {
			n = len(lpns)
		}
		if len(pages) < n {
			n = len(pages)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				At:    abs64(ats[i]),
				Write: ats[i]%2 == 0,
				LPN:   abs64(lpns[i]),
				Pages: int32(pages[i]),
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		back, err := read(&buf)
		if err != nil || len(back) != n {
			return false
		}
		for i := range recs {
			if back[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 0
		}
		return -v
	}
	return v
}

func TestRecordBytes(t *testing.T) {
	r := Record{Pages: 4}
	if r.Bytes(16384) != 65536 {
		t.Fatalf("bytes = %d", r.Bytes(16384))
	}
}

func TestRecorderUnbounded(t *testing.T) {
	rc := NewRecorder(0)
	for i := 0; i < 100; i++ {
		rc.Add(Record{At: int64(i)})
	}
	recs := rc.Records()
	if len(recs) != 100 || recs[0].At != 0 || recs[99].At != 99 {
		t.Fatalf("unbounded recorder wrong: %d records", len(recs))
	}
}

func TestRecorderRing(t *testing.T) {
	rc := NewRecorder(10)
	for i := 0; i < 25; i++ {
		rc.Add(Record{At: int64(i)})
	}
	recs := rc.Records()
	if len(recs) != 10 {
		t.Fatalf("ring holds %d", len(recs))
	}
	for i, r := range recs {
		if r.At != int64(15+i) {
			t.Fatalf("ring order wrong at %d: %d", i, r.At)
		}
	}
	if rc.Len() != 10 {
		t.Fatalf("len = %d", rc.Len())
	}
}

// The two segments concatenated are Records() at every fill level and every
// wrap offset, and they are the recorder's storage itself, not a copy.
func TestRecorderSegmentsMatchRecords(t *testing.T) {
	for _, limit := range []int{0, 7} {
		rc := NewRecorder(limit)
		check := func(added int) {
			t.Helper()
			older, newer := rc.Segments()
			got := append(append([]Record{}, older...), newer...)
			want := rc.Records()
			if len(got) != rc.Len() || len(want) != rc.Len() {
				t.Fatalf("limit %d after %d adds: %d in segments, %d in Records, Len %d",
					limit, added, len(got), len(want), rc.Len())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("limit %d after %d adds: record %d is %+v in the segments, %+v in Records",
						limit, added, i, got[i], want[i])
				}
			}
			for i := 1; i < len(got); i++ {
				if got[i].At != got[i-1].At+1 {
					t.Fatalf("limit %d after %d adds: not in arrival order at %d", limit, added, i)
				}
			}
		}
		check(0)
		for i := 0; i < 3*7; i++ {
			rc.Add(Record{At: int64(i), LPN: int64(i * 3), Pages: int32(1 + i%4), Write: i%2 == 1})
			check(i + 1)
		}
		// Not a copy: the older segment starts where the storage does (both
		// recorders are at offset 0 after three laps), and once the ring is
		// at capacity an Add overwrites the oldest record where a held
		// segment already points.
		older, _ := rc.Segments()
		oldest := &older[0]
		if oldest != &rc.recs[0] {
			t.Fatalf("limit %d: the older segment does not alias the recorder's storage", limit)
		}
		if limit > 0 {
			rc.Add(Record{At: -1})
			if oldest.At != -1 {
				t.Fatalf("limit %d: Add not visible through a held segment (At %d)", limit, oldest.At)
			}
			if recs := rc.Records(); &recs[0] == oldest || recs[len(recs)-1].At != -1 {
				t.Fatalf("limit %d: Records aliases the ring or missed the Add", limit)
			}
		}
	}
}

// A ring at capacity records and is read without allocating: Add overwrites
// in place and Segments re-slices the storage.
func TestRecorderRingZeroAlloc(t *testing.T) {
	rc := NewRecorder(64)
	for i := 0; i < 100; i++ {
		rc.Add(Record{At: int64(i)})
	}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		rc.Add(Record{At: 1})
		older, newer := rc.Segments()
		n += len(older) + len(newer)
	})
	if allocs != 0 || n == 0 {
		t.Fatalf("full ring: %v allocations per Add+Segments (%d records seen), want 0", allocs, n)
	}
}

func TestReadErrorDetail(t *testing.T) {
	// Bad magic: the error must name both the bytes found and the bytes
	// expected, so a mis-pointed file is diagnosable from the message.
	bad := make([]byte, 12)
	bad[0], bad[1], bad[2], bad[3] = 0xde, 0xad, 0xbe, 0xef
	_, err := read(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, want := range []string{"0xefbeadde", "0x00f1ee70"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("bad-magic error %q does not mention %s", err, want)
		}
	}

	// Truncated record stream: the error must carry the record index and
	// the header's total count.
	var buf bytes.Buffer
	if err := Write(&buf, []Record{{At: 1}, {At: 2}, {At: 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, err = read(bytes.NewReader(data[:12+21+5])) // header + 1 record + a stub
	if err == nil {
		t.Fatal("truncated record stream accepted")
	}
	if !strings.Contains(err.Error(), "record 1 of 3") {
		t.Fatalf("truncation error %q does not locate the record", err)
	}

	// Truncated header.
	for _, n := range []int{0, 5, 11} {
		if _, err := read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("%d-byte header accepted", n)
		} else if !strings.Contains(err.Error(), "header") {
			t.Fatalf("header error %q does not say header", err)
		}
	}
}

func TestReadBogusCountNoBlowup(t *testing.T) {
	// A corrupt header claiming 2^60 records must fail on the first
	// missing record, not try to preallocate for the claimed count.
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint64(hdr[4:12], 1<<60)
	_, err := read(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("bogus count accepted")
	}
	if !strings.Contains(err.Error(), "record 0 of") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// FuzzRead drives Read over corrupted headers and record streams: it must
// either return an error or records that round-trip, never panic.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, []Record{{At: 7, Write: true, LPN: 9, Pages: 2}, {At: 11, LPN: 3, Pages: 1}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:13])
	f.Add(valid.Bytes()[:11])
	f.Add([]byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[6] = 0xff // header count
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := read(&buf)
		if err != nil || len(back) != len(recs) {
			t.Fatalf("accepted trace does not round-trip: %v", err)
		}
	})
}
