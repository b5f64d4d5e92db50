// Package trace defines the block-level I/O trace records FleetIO collects
// from each vSSD (used for workload-type clustering, §3.4) and a compact
// binary encoding for storing and replaying them.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Record is one block I/O: timestamp, starting logical page, length in
// pages and direction. The fields run widest first so a record packs into
// 24 bytes; the binary format writes each field explicitly, in its own
// order.
type Record struct {
	At    sim.Time
	LPN   int64
	Pages int32
	Write bool
}

// Bytes returns the payload size given the page size.
func (r Record) Bytes(pageSize int) int64 { return int64(r.Pages) * int64(pageSize) }

const magic = uint32(0xF1EE70)

// Write encodes records to w in the compact binary format.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(recs)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 21)
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(r.At))
		if r.Write {
			buf[8] = 1
		} else {
			buf[8] = 0
		}
		binary.LittleEndian.PutUint64(buf[9:17], uint64(r.LPN))
		binary.LittleEndian.PutUint32(buf[17:21], uint32(r.Pages))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// read decodes a trace written by Write.
func read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != magic {
		return nil, fmt.Errorf("trace: bad magic %#08x (want %#08x)", got, magic)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	// The record count comes from the (possibly corrupt) header; cap the
	// preallocation so a bogus count cannot balloon memory before the
	// truncated-read error below surfaces.
	pre := n
	if pre > 1<<20 {
		pre = 1 << 20
	}
	recs := make([]Record, 0, pre)
	buf := make([]byte, 21)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("trace: record %d of %d: %w", i, n, err)
		}
		recs = append(recs, Record{
			At:    sim.Time(binary.LittleEndian.Uint64(buf[0:8])),
			Write: buf[8] == 1,
			LPN:   int64(binary.LittleEndian.Uint64(buf[9:17])),
			Pages: int32(binary.LittleEndian.Uint32(buf[17:21])),
		})
	}
	return recs, nil
}

// chunkSize is how many records a Recorder allocates at a time.
const chunkSize = 1024

// Recorder accumulates records in memory, keeping the most recent limit of
// them in a ring. The records live in fixed chunks of chunkSize, allocated
// as the recorder fills and overwritten in place once it holds limit: it
// copies nothing while it grows, allocates nothing once full, and holds
// memory for the records it holds, not for its bound. Walk reads the
// recorder's own storage, which the next Add may overwrite.
type Recorder struct {
	chunks [][]Record
	limit  int
	n      int // records held
	next   int // once full, the position of the oldest record, which the next Add overwrites
}

// NewRecorder returns a recorder keeping at most limit records; it panics
// on a limit below 1.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		panic(fmt.Sprintf("trace: recorder limit %d: must be >= 1", limit))
	}
	return &Recorder{limit: limit, chunks: make([][]Record, 0, (limit+chunkSize-1)/chunkSize)}
}

// Add appends a record.
func (rc *Recorder) Add(r Record) {
	if rc.n == rc.limit {
		rc.chunks[rc.next/chunkSize][rc.next%chunkSize] = r
		if rc.next++; rc.next == rc.limit {
			rc.next = 0
		}
		return
	}
	if rc.n%chunkSize == 0 {
		rc.chunks = append(rc.chunks, make([]Record, min(chunkSize, rc.limit-rc.n)))
	}
	rc.chunks[rc.n/chunkSize][rc.n%chunkSize] = r
	rc.n++
}

// Walk calls fn on the recorded entries in arrival order, as consecutive
// contiguous segments of the recorder's own storage, without copying: a
// ring that has wrapped is read from its oldest record to the end of its
// storage and then from its start, each stretch cut at chunk boundaries. A
// segment is valid until the next Add, which may overwrite it; fn must not
// write through it or keep it. An empty recorder never calls fn.
func (rc *Recorder) Walk(fn func(seg []Record)) {
	rc.walk(rc.next, rc.n, fn)
	rc.walk(0, rc.next, fn)
}

// walk calls fn on the positions [from, to), one chunk at a time.
func (rc *Recorder) walk(from, to int, fn func(seg []Record)) {
	for from < to {
		c := rc.chunks[from/chunkSize]
		seg := c[from%chunkSize : min(len(c), from%chunkSize+to-from)]
		fn(seg)
		from += len(seg)
	}
}

// Len returns the number of records held.
func (rc *Recorder) Len() int { return rc.n }
