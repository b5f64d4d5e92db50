package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// Records returns a copy of the recorded entries in arrival order: the
// reference Walk's in-place segments are checked against.
func (rc *Recorder) Records() []Record {
	out := make([]Record, 0, rc.Len())
	rc.Walk(func(seg []Record) { out = append(out, seg...) })
	return out
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

// Walk's segments are the records in arrival order at every fill level and
// at every cut the ring can have — unwrapped, wrapped mid-chunk, wrapped on a
// chunk boundary — each one contiguous storage inside one chunk, and they
// are the recorder's storage itself, not a copy.
func TestRecorderWalkMatchesRecords(t *testing.T) {
	const big = 3*chunkSize - 5 // three chunks, the last one short
	for _, limit := range []int{0, 7, big} {
		rc := NewRecorder(limit)
		check := func(added int) {
			t.Helper()
			var got []Record
			segs := 0
			rc.Walk(func(seg []Record) {
				if len(seg) == 0 || len(seg) > chunkSize {
					t.Fatalf("limit %d after %d adds: segment of %d records", limit, added, len(seg))
				}
				got = append(got, seg...)
				segs++
			})
			held := added
			if limit > 0 {
				held = min(added, limit)
			}
			if len(got) != held || rc.Len() != held {
				t.Fatalf("limit %d after %d adds: %d records walked, Len %d, want %d", limit, added, len(got), rc.Len(), held)
			}
			first := added - held
			for i, r := range got {
				if r.At != int64(first+i) {
					t.Fatalf("limit %d after %d adds: record %d is At %d, want %d", limit, added, i, r.At, first+i)
				}
			}
			// A ring cut by its wrap point is one segment more than its
			// chunks; one cut on a chunk boundary is not.
			if chunks := (rc.Len() + chunkSize - 1) / chunkSize; segs < chunks || segs > chunks+1 {
				t.Fatalf("limit %d after %d adds: %d segments over %d chunks", limit, added, segs, chunks)
			}
		}
		add := func(i int) {
			rc.Add(Record{At: int64(i), LPN: int64(i * 3), Pages: int32(1 + i%4), Write: i%2 == 1})
		}
		check(0)
		if limit != big {
			for i := 0; i < 3*7; i++ {
				add(i)
				check(i + 1)
			}
			continue
		}
		cuts := map[int]bool{
			1: true, chunkSize - 1: true, chunkSize: true, chunkSize + 1: true, // filling
			big - 1: true, big: true, big + 1: true, // exactly full, then the first overwrite
			big + 500:           true, // wrapped mid-chunk
			big + chunkSize:     true, // wrapped on a chunk boundary
			big + chunkSize + 1: true,
			2 * big:             true, // a full lap: unwrapped again
			3*big - 1:           true,
		}
		for i := 0; i < 3*big; i++ {
			add(i)
			if cuts[i+1] {
				check(i + 1)
			}
		}
	}
}

// Walk reads the storage, not a copy: a held segment sees the next Add
// overwrite the oldest record once the ring is full.
func TestRecorderWalkAliasesStorage(t *testing.T) {
	rc := NewRecorder(2*chunkSize + 10)
	for i := 0; i < 3*chunkSize; i++ {
		rc.Add(Record{At: int64(i)})
	}
	var oldest *Record
	rc.Walk(func(seg []Record) {
		if oldest == nil {
			oldest = &seg[0]
		}
	})
	rc.Add(Record{At: -1})
	if oldest.At != -1 {
		t.Fatalf("Add not visible through a held segment (At %d)", oldest.At)
	}
	if recs := rc.Records(); &recs[0] == oldest || recs[len(recs)-1].At != -1 {
		t.Fatal("Records aliases the ring or missed the Add")
	}
}

// A ring at capacity records and is read without allocating: Add overwrites
// in place and Walk re-slices the storage.
func TestRecorderRingZeroAlloc(t *testing.T) {
	rc := NewRecorder(64)
	for i := 0; i < 100; i++ {
		rc.Add(Record{At: int64(i)})
	}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		rc.Add(Record{At: 1})
		rc.Walk(func(seg []Record) { n += len(seg) })
	})
	if allocs != 0 || n == 0 {
		t.Fatalf("full ring: %v allocations per Add+Walk (%d records seen), want 0", allocs, n)
	}
}

// recordWidth is a Record's size in bytes.
const recordWidth = 24

// TestRecordTableWidths: the fields of a Record run widest first, so it
// packs into 24 bytes (At, Write, LPN, Pages in that order pad to 32).
func TestRecordTableWidths(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != recordWidth {
		t.Fatalf("Record is %d bytes, want %d", got, recordWidth)
	}
}

var recorderSink *Recorder

// A recorder filled from empty to three times its bound allocates itself,
// its chunk index and its chunks, once each: nothing is copied while it
// grows (an append-grown ring of the paper's 10 000 records allocated
// ~2.2x its final size), and nothing at all once it is full.
func TestRecorderFillZeroAlloc(t *testing.T) {
	const limit = 10_000
	chunks := (limit + chunkSize - 1) / chunkSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, func() {
		rc := NewRecorder(limit)
		for i := 0; i < 3*limit; i++ {
			rc.Add(Record{At: int64(i)})
		}
		recorderSink = rc
	})
	runtime.ReadMemStats(&after)
	if want := float64(2 + chunks); allocs != want {
		t.Fatalf("filling a %d-record recorder: %v allocations, want %v (recorder, index, %d chunks)", limit, allocs, want, chunks)
	}
	// AllocsPerRun runs the fill twice (a warm-up, then the measured run).
	if per, bound := (after.TotalAlloc-before.TotalAlloc)/2, uint64(limit*recordWidth+4096); per > bound {
		t.Fatalf("filling a %d-record recorder allocated %d bytes, want <= %d", limit, per, bound)
	}
	rc := recorderSink
	if got := testing.AllocsPerRun(1000, func() { rc.Add(Record{At: 1}) }); got != 0 {
		t.Fatalf("full recorder: %v allocations per Add, want 0", got)
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
