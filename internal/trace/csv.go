package trace

import (
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// MaxRecordPages caps one ingested request's size in pages. Block traces
// occasionally carry multi-megabyte transfers; replaying one as a single
// request would blow past every inflight cap, so oversized rows are
// clamped here (the clamp count is reported by ParseCSV).
const MaxRecordPages = 512

// CSVFormat describes how one CSV trace dialect maps onto Record fields.
// The built-in dialects (see FormatByName) cover MSR-Cambridge-style and
// Alibaba-block-style traces plus a direct "generic" record form; custom
// layouts can fill the struct by hand.
type CSVFormat struct {
	// Name identifies the dialect in CLI flags and error messages.
	Name string
	// Columns is the exact field count of a data row (0 = unchecked).
	Columns int
	// TimeCol, OpCol, OffsetCol, SizeCol are 0-based field indices.
	TimeCol, OpCol, OffsetCol, SizeCol int
	// TimeScale converts one timestamp unit to nanoseconds (e.g. an
	// MSR Windows-filetime tick is 100 ns, an Ali microsecond is 1000).
	TimeScale float64
	// ByteAddressed marks Offset/Size columns as byte quantities to be
	// converted to page-aligned LPN/length; otherwise they are taken as
	// LPN and pages directly.
	ByteAddressed bool
}

// Built-in CSV dialects.
var csvFormats = map[string]CSVFormat{
	// MSR Cambridge block traces:
	//   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
	// with Timestamp in Windows filetime ticks (100 ns) and byte offsets.
	"msr": {
		Name: "msr", Columns: 7,
		TimeCol: 0, OpCol: 3, OffsetCol: 4, SizeCol: 5,
		TimeScale: 100, ByteAddressed: true,
	},
	// Alibaba-style block traces:
	//   device_id,opcode,offset,length,timestamp
	// with timestamp in microseconds and byte offsets.
	"ali": {
		Name: "ali", Columns: 5,
		TimeCol: 4, OpCol: 1, OffsetCol: 2, SizeCol: 3,
		TimeScale: 1000, ByteAddressed: true,
	},
	// The direct record form used by fleettrace:
	//   at_ns,op,lpn,pages
	"generic": {
		Name: "generic", Columns: 4,
		TimeCol: 0, OpCol: 1, OffsetCol: 2, SizeCol: 3,
		TimeScale: 1, ByteAddressed: false,
	},
}

// FormatByName returns a built-in CSV dialect ("msr", "ali", "generic").
func FormatByName(name string) (CSVFormat, error) {
	f, ok := csvFormats[strings.ToLower(name)]
	if !ok {
		return CSVFormat{}, fmt.Errorf("trace: unknown CSV format %q (have %s)",
			name, strings.Join(formatNames(), ", "))
	}
	return f, nil
}

// formatNames lists the built-in CSV dialect names, sorted.
func formatNames() []string {
	names := make([]string, 0, len(csvFormats))
	for n := range csvFormats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseCSV ingests a CSV trace under the given dialect into records ready
// for Write or replay: timestamps are normalized to start at zero,
// byte-addressed offsets become page-aligned LPN/length pairs over
// pageSize-byte pages, rows are validated (with the 1-based data-row
// number in every error), and the result is stably sorted by timestamp.
// clamped reports how many oversized rows were cut to MaxRecordPages.
func ParseCSV(r io.Reader, f CSVFormat, pageSize int) (recs []Record, clamped int, err error) {
	if pageSize <= 0 {
		return nil, 0, fmt.Errorf("trace: page size %d", pageSize)
	}
	need := f.TimeCol
	for _, c := range []int{f.OpCol, f.OffsetCol, f.SizeCol} {
		if c > need {
			need = c
		}
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // field counts are checked here, with row numbers
	cr.ReuseRecord = true
	var raw []rawRow
	row := 0
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("trace: csv row %d: %w", row+1, err)
		}
		row++
		if f.Columns > 0 && len(fields) != f.Columns {
			if row == 1 {
				continue // tolerate a stray header/banner line
			}
			return nil, 0, fmt.Errorf("trace: csv row %d: %d fields (format %s wants %d)",
				row, len(fields), f.Name, f.Columns)
		}
		if len(fields) <= need {
			return nil, 0, fmt.Errorf("trace: csv row %d: %d fields, need at least %d",
				row, len(fields), need+1)
		}
		at, err := strconv.ParseInt(strings.TrimSpace(fields[f.TimeCol]), 10, 64)
		if err != nil {
			if row == 1 {
				continue // header row: column names where numbers belong
			}
			return nil, 0, fmt.Errorf("trace: csv row %d: timestamp %q", row, fields[f.TimeCol])
		}
		write, err := parseOp(fields[f.OpCol])
		if err != nil {
			return nil, 0, fmt.Errorf("trace: csv row %d: %w", row, err)
		}
		off, err := strconv.ParseInt(strings.TrimSpace(fields[f.OffsetCol]), 10, 64)
		if err != nil || off < 0 {
			return nil, 0, fmt.Errorf("trace: csv row %d: offset %q", row, fields[f.OffsetCol])
		}
		size, err := strconv.ParseInt(strings.TrimSpace(fields[f.SizeCol]), 10, 64)
		if err != nil || size < 0 {
			return nil, 0, fmt.Errorf("trace: csv row %d: size %q", row, fields[f.SizeCol])
		}
		raw = append(raw, rawRow{at: at, write: write, off: off, size: size})
	}
	if len(raw) == 0 {
		return nil, 0, fmt.Errorf("trace: csv: no data rows")
	}
	// Normalize timestamps against the earliest raw tick before scaling,
	// so huge absolute epochs (MSR filetimes) never hit float precision.
	min := raw[0].at
	for _, rr := range raw {
		if rr.at < min {
			min = rr.at
		}
	}
	recs = make([]Record, 0, len(raw))
	for _, rr := range raw {
		var lpn, pages int64
		if f.ByteAddressed {
			lpn = rr.off / int64(pageSize)
			end := (rr.off + rr.size + int64(pageSize) - 1) / int64(pageSize)
			pages = end - lpn
		} else {
			lpn, pages = rr.off, rr.size
		}
		if pages < 1 {
			pages = 1 // zero-length rows still touch their page
		}
		if pages > MaxRecordPages {
			pages = MaxRecordPages
			clamped++
		}
		recs = append(recs, Record{
			At:    sim.Time(float64(rr.at-min) * f.TimeScale),
			Write: rr.write,
			LPN:   lpn,
			Pages: int32(pages),
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	return recs, clamped, nil
}

type rawRow struct {
	at        int64
	write     bool
	off, size int64
}

// parseOp maps an op-column value to its direction: Write/W/w/1 are
// writes, Read/R/r/0 are reads.
func parseOp(s string) (write bool, err error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "w", "write", "1":
		return true, nil
	case "r", "read", "0":
		return false, nil
	}
	return false, fmt.Errorf("op %q (want Read/Write, R/W, or 0/1)", s)
}

// LoadFile reads a trace file of either kind: the compact binary format
// (detected by its magic) or CSV, whose dialect is sniffed from the first
// row's field count (7 → msr, 5 → ali, 4 → generic). pageSize converts
// byte-addressed CSV dialects; the binary format ignores it.
func LoadFile(path string, pageSize int) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [4]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == 4 && binary.LittleEndian.Uint32(hdr[:]) == magic {
		recs, err := read(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return recs, nil
	}
	format, err := sniffCSV(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	recs, _, err := ParseCSV(f, format, pageSize)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// sniffCSV picks a built-in dialect from the first row's field count.
func sniffCSV(r io.Reader) (CSVFormat, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	fields, err := cr.Read()
	if err != nil {
		return CSVFormat{}, fmt.Errorf("not a binary trace and not CSV: %w", err)
	}
	for _, f := range csvFormats {
		if f.Columns == len(fields) {
			return f, nil
		}
	}
	return CSVFormat{}, fmt.Errorf("no CSV dialect has %d columns (have %s)",
		len(fields), strings.Join(formatNames(), ", "))
}
