package core

import (
	"errors"
	"path/filepath"
	"testing"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
)

// errKilled is the sentinel a test checkpoint hook returns to abort a
// campaign right after a checkpoint commits — an in-process stand-in for
// SIGKILL that leaves a valid checkpoint on disk (the cross-process kill
// matrix lives in internal/tools/resumesmoke).
var errKilled = errors.New("resume test: simulated kill after checkpoint")

// TestResumeCampaignBitIdentical is the core resume invariant: kill a
// campaign after a mid-run checkpoint, resume it on a fresh engine at a
// DIFFERENT parallelism, and the records and report must match an
// uninterrupted run bit-exactly. Runs fault-free and with the flaky-vm
// profile so breaker state, create-attempt residue and dead-VM slots all
// travel through the checkpoint. Executed under -race in CI, the
// parallelism-4 resume also exercises the replay/emit paths concurrently.
func TestResumeCampaignBitIdentical(t *testing.T) {
	const region, days, stopAfter = "us-west1", 2, 17
	for _, prof := range []string{"none", "flaky-vm"} {
		t.Run(prof, func(t *testing.T) {
			ref, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.RunTopologyCampaign(region, days)
			if err != nil {
				t.Fatal(err)
			}

			ckDir := t.TempDir()
			killed, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof, CheckpointDir: ckDir})
			if err != nil {
				t.Fatal(err)
			}
			killed.testCheckpointHook = func(p orchestrator.Progress) error {
				if p.NextHour > stopAfter {
					return errKilled
				}
				return nil
			}
			if _, _, err := killed.RunTopologyCampaign(region, days); !errors.Is(err, errKilled) {
				t.Fatalf("killed campaign returned %v, want the sentinel", err)
			}

			ck, err := checkpoint.Load(ckDir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Dir != filepath.Join(ckDir, region+"-topology") {
				t.Fatalf("checkpoint landed in %s", ck.Dir)
			}
			if got := ck.Meta.Progress.NextHour; got <= 0 || got > stopAfter+1 {
				t.Fatalf("checkpoint watermark %d, want in (0, %d]", got, stopAfter+1)
			}

			resumed, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := resumed.ResumeCampaign(ck)
			if err != nil {
				t.Fatal(err)
			}

			if len(res.Records) != len(want.Records) {
				t.Fatalf("resumed run produced %d records, want %d", len(res.Records), len(want.Records))
			}
			for i := range want.Records {
				if res.Records[i] != want.Records[i] {
					t.Fatalf("record %d drifted across kill+resume:\n got: %+v\nwant: %+v", i, res.Records[i], want.Records[i])
				}
			}
			gotRep, wantRep := *res.Report, *want.Report
			// CPU peaks depend on goroutine interleaving, not the seed; they
			// are excluded from every durable output for the same reason.
			gotRep.MaxVMCPUUtil, wantRep.MaxVMCPUUtil = 0, 0
			if gotRep != wantRep {
				t.Fatalf("report drifted across kill+resume:\n got: %+v\nwant: %+v", gotRep, wantRep)
			}

			// The resumed run keeps checkpointing into the same directory:
			// its final checkpoint covers the whole campaign.
			final, err := checkpoint.Load(ck.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if final.Meta.Progress.NextHour != days*24 {
				t.Fatalf("final watermark %d, want %d", final.Meta.Progress.NextHour, days*24)
			}
			if final.NumRecords() != len(want.Records) {
				t.Fatalf("final checkpoint covers %d records, want %d", final.NumRecords(), len(want.Records))
			}
		})
	}
}

// TestResumeCampaignRejectsMismatchedEngine pins the identity guards: a
// resume on an engine whose seed, scale or fault profile differs from the
// checkpoint must refuse rather than silently produce different output.
func TestResumeCampaignRejectsMismatchedEngine(t *testing.T) {
	ckDir := t.TempDir()
	killed, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir})
	if err != nil {
		t.Fatal(err)
	}
	killed.testCheckpointHook = func(orchestrator.Progress) error { return errKilled }
	if _, _, err := killed.RunTopologyCampaign("us-west1", 1); !errors.Is(err, errKilled) {
		t.Fatalf("got %v, want the sentinel", err)
	}
	ck, err := checkpoint.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"seed", Options{Seed: 4, Scale: 0.1}},
		{"scale", Options{Seed: 3, Scale: 0.2}},
		{"profile", Options{Seed: 3, Scale: 0.1, FaultProfile: "flaky-vm"}},
	} {
		eng, err := New(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ResumeCampaign(ck); err == nil {
			t.Errorf("%s mismatch: resume succeeded, want refusal", tc.name)
		}
	}

	// ResumeOptions + the free runtime knobs is the sanctioned path.
	opts := ResumeOptions(ck.Meta.Campaign)
	opts.Parallelism = 2
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResumeCampaign(ck); err != nil {
		t.Errorf("ResumeOptions-built engine refused: %v", err)
	}

	// An unknown kind in doctored metadata must also refuse.
	ck.Meta.Campaign.Kind = "bogus"
	if _, err := eng.ResumeCampaign(ck); err == nil {
		t.Error("bogus kind: resume succeeded, want refusal")
	}
}

// TestStreamingResumeMatchesInMemory pins resume under the memory-budgeted
// representation: a killed streaming campaign (records in a spillable
// RecordLog) resumes into the same bytes as the in-memory reference.
func TestStreamingResumeMatchesInMemory(t *testing.T) {
	// Three days at this scale overflow the 1MB budget, forcing the
	// streaming (RecordLog) representation on the killed and resumed runs.
	const region, days = "us-west1", 3
	ref, err := New(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.RunTopologyCampaign(region, days)
	if err != nil {
		t.Fatal(err)
	}

	ckDir := t.TempDir()
	killed, err := New(Options{
		Seed: 3, Scale: 0.1,
		MaxMemoryMB: 1, SpillDir: t.TempDir(),
		CheckpointDir: ckDir, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed.testCheckpointHook = func(p orchestrator.Progress) error {
		if p.NextHour > 20 {
			return errKilled
		}
		return nil
	}
	if _, _, err := killed.RunTopologyCampaign(region, days); !errors.Is(err, errKilled) {
		t.Fatalf("got %v, want the sentinel", err)
	}

	ck, err := checkpoint.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if every := ck.Meta.Campaign.Every; every != 3 {
		t.Fatalf("checkpoint cadence %d did not travel, want 3", every)
	}
	opts := ResumeOptions(ck.Meta.Campaign)
	opts.MaxMemoryMB, opts.SpillDir = 1, t.TempDir()
	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.ResumeCampaign(ck)
	if err != nil {
		t.Fatal(err)
	}
	if res.Log == nil {
		t.Fatal("streaming resume did not produce a record log")
	}
	if res.NumRecords() != len(want.Records) {
		t.Fatalf("streaming resume produced %d records, want %d", res.NumRecords(), len(want.Records))
	}
	cur, i := res.Cursor(), 0
	for batch := cur.Next(); batch != nil; batch = cur.Next() {
		for _, m := range batch {
			if m != want.Records[i] {
				t.Fatalf("record %d drifted across streaming kill+resume", i)
			}
			i++
		}
	}
}
