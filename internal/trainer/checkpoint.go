package trainer

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// checkpoint is one durable training snapshot: enough to restart
// collection from the next round and to recover the eval-gated best model.
// Optimizer moments are deliberately not persisted — Adam re-warms within
// a round and the files stay small.
type checkpoint struct {
	Round      int   // last completed round
	Seed       int64 // base seed the run was launched with
	Workers    int   // worker count the run was launched with
	Params     []float64
	BestScore  float64
	BestParams []float64 // nil when eval gating was disabled
}

// File layout: magic | uint32 payload CRC | uint32 payload length | gob
// payload. The CRC rejects torn or corrupted files that gob alone might
// accept a prefix of.
var ckptMagic = []byte("FLTCKPT1")

const ckptPrefix = "ckpt-"

// ckptName returns the file name for a round's snapshot; lexical order of
// the zero-padded round number is chronological order.
func ckptName(round int) string {
	return fmt.Sprintf("%s%08d.gob", ckptPrefix, round)
}

// save atomically writes ck into dir (creating it if needed) as
// ckpt-<round>.gob via a temp file and rename, so a crash mid-write never
// leaves a half-visible snapshot. It returns the final path.
func save(dir string, ck *checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trainer: checkpoint dir: %w", err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return "", fmt.Errorf("trainer: encode checkpoint: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(ckptMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(payload.Bytes()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())

	path := filepath.Join(dir, ckptName(ck.Round))
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return "", fmt.Errorf("trainer: checkpoint temp: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trainer: checkpoint chmod: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trainer: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trainer: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trainer: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trainer: checkpoint rename: %w", err)
	}
	return path, nil
}

// load reads and verifies one checkpoint file.
func load(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(ckptMagic)+8 || !bytes.Equal(data[:len(ckptMagic)], ckptMagic) {
		return nil, fmt.Errorf("trainer: %s: not a checkpoint file", path)
	}
	hdr := data[len(ckptMagic):]
	wantCRC := binary.LittleEndian.Uint32(hdr[0:])
	wantLen := binary.LittleEndian.Uint32(hdr[4:])
	payload := hdr[8:]
	if uint32(len(payload)) != wantLen {
		return nil, fmt.Errorf("trainer: %s: truncated checkpoint (%d of %d payload bytes)", path, len(payload), wantLen)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("trainer: %s: checkpoint CRC mismatch", path)
	}
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("trainer: %s: decode checkpoint: %w", path, err)
	}
	return &ck, nil
}

// loadLatest returns the newest readable checkpoint in dir, skipping
// corrupt or partial files so a crash during save (or disk damage since)
// falls back to the last good snapshot. (nil, "", nil) means no snapshot
// exists — including when dir itself is missing.
func loadLatest(dir string) (*checkpoint, string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("trainer: checkpoint dir: %w", err)
	}
	var rounds []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ".gob") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ".gob"))
		if err != nil {
			continue
		}
		rounds = append(rounds, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rounds)))
	var lastErr error
	for _, n := range rounds {
		path := filepath.Join(dir, ckptName(n))
		ck, err := load(path)
		if err == nil {
			return ck, path, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, "", fmt.Errorf("trainer: no readable checkpoint in %s: %w", dir, lastErr)
	}
	return nil, "", nil
}
