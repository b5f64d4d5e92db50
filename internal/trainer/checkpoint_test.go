package trainer

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func sampleCheckpoint(round int) *checkpoint {
	params := make([]float64, 64)
	for i := range params {
		params[i] = math.Sin(float64(round*100 + i))
	}
	return &checkpoint{
		Round:      round,
		Seed:       11,
		Workers:    4,
		Params:     params,
		BestScore:  -0.25,
		BestParams: append([]float64(nil), params...),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleCheckpoint(3)
	path, err := save(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Seed != want.Seed || got.Workers != want.Workers {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Params) != len(want.Params) {
		t.Fatalf("params length %d, want %d", len(got.Params), len(want.Params))
	}
	for i := range got.Params {
		if got.Params[i] != want.Params[i] {
			t.Fatalf("param %d: %v != %v", i, got.Params[i], want.Params[i])
		}
	}
	if got.BestScore != want.BestScore || len(got.BestParams) != len(want.BestParams) {
		t.Fatalf("best snapshot mismatch: %+v", got)
	}
	// No temp files may survive a successful save.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("stray file after save: %s", e.Name())
		}
	}
}

func TestCheckpointRejectsCorruptAndPartial(t *testing.T) {
	dir := t.TempDir()
	path, err := save(dir, sampleCheckpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated (torn write): must be rejected.
	partial := filepath.Join(dir, "ckpt-00000002.gob")
	if err := os.WriteFile(partial, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(partial); err == nil {
		t.Fatal("partial checkpoint accepted")
	}

	// Bit flip in the payload: must be rejected by the CRC.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x40
	flippedPath := filepath.Join(dir, "ckpt-00000003.gob")
	if err := os.WriteFile(flippedPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(flippedPath); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}

	// Wrong magic: must be rejected.
	if _, err := load(partial); err == nil {
		t.Fatal("partial accepted")
	}
	garbagePath := filepath.Join(dir, "ckpt-00000004.gob")
	if err := os.WriteFile(garbagePath, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(garbagePath); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}

	// LoadLatest must skip all three bad newer files and land on round 1.
	ck, gotPath, err := loadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Round != 1 || gotPath != path {
		t.Fatalf("LoadLatest did not fall back to the good snapshot: %+v from %s", ck, gotPath)
	}
}

func TestLoadLatestEmptyAndMissing(t *testing.T) {
	ck, _, err := loadLatest(filepath.Join(t.TempDir(), "nope"))
	if err != nil || ck != nil {
		t.Fatalf("missing dir: ck=%v err=%v", ck, err)
	}
	ck, _, err = loadLatest(t.TempDir())
	if err != nil || ck != nil {
		t.Fatalf("empty dir: ck=%v err=%v", ck, err)
	}
}

func TestLoadLatestAllCorruptErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000001.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadLatest(dir); err == nil {
		t.Fatal("all-corrupt dir should error rather than silently start fresh")
	}
}

// Resume after corrupting the newest checkpoint falls back to the last
// good snapshot and continues training from its round.
func TestRunResumeFromLastGoodSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := synthConfig(19, 1, 3) // 3 rounds, checkpoint every round
	cfg.CheckpointDir = dir
	first, err := Run(cfg, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rounds) != 3 {
		t.Fatalf("expected 3 rounds, got %d", len(first.Rounds))
	}
	// Corrupt the newest snapshot (round 2); round 1's remains good.
	newest := filepath.Join(dir, "ckpt-00000002.gob")
	if err := os.WriteFile(newest, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	cfg.Episodes = 4
	res, err := Run(cfg, synthEnv)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartRound != 2 {
		t.Fatalf("expected resume at round 2 (after last good round 1), got %d", res.StartRound)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("expected rounds 2..3 to run, got %d rounds", len(res.Rounds))
	}
	if got, want := res.Final.NumParams(), first.Final.NumParams(); got != want {
		t.Fatalf("resumed model has %d params, want %d", got, want)
	}
}
