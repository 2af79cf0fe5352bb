package workload

import (
	"fmt"
	"os"

	"cgp/internal/db"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// Captured wraps a sealed probe-level recording (live traffic captured
// from a serving database process) as a Workload, registered alongside
// the synthetic wisconsin/tpch/cpu2000 workloads. Run replays the
// probe call sequence through per-session tracers over the requested
// image, so a capture taken once from real clients feeds every layout
// and configuration the harness asks for — deterministically, because
// the sealed recording plus the image and seed fully determine the
// synthesized stream.
//
// The registry is the database system's own (the capture came from the
// same engine build), so function IDs recorded at capture time resolve
// to the same functions at replay time.
func Captured(name string, rec *trace.Recording, seed int64) (*Workload, error) {
	if !trace.IsProbeRecording(rec) {
		return nil, fmt.Errorf("workload %s: %w", name, trace.ErrNotProbeRecording)
	}
	if seed == 0 {
		seed = 42
	}
	return &Workload{
		Name:   name,
		Family: "captured",
		NewRegistry: func() *program.Registry {
			reg, _ := db.BuildRegistry()
			return reg
		},
		Run: func(img *program.Image, out trace.Consumer) error {
			return trace.ReplayProbe(rec, img, out, seed)
		},
	}, nil
}

// Recorded wraps a sealed address-level recording (cgptrace record's
// output) as a Workload whose stream is the recording's own events. The
// addresses were fixed over one image when the stream was recorded, so
// the workload has no registry to lay out (functions are known only by
// their start addresses), Run replays the events whatever the image,
// and Recording hands the runner the sealed stream to replay in place
// of recording it again.
func Recorded(name string, rec *trace.Recording) *Workload {
	return &Workload{
		Name:        name,
		Family:      "recorded",
		NewRegistry: program.NewRegistry,
		Run: func(_ *program.Image, out trace.Consumer) error {
			return rec.Replay(out)
		},
		Recording: rec,
	}
}

// FromFile loads a sealed trace file (the cgptrc container) as a
// workload: a probe-level capture as the "captured" workload, whose
// stream is synthesized with seed (see Captured), and any other
// recording as the "recorded" workload (see Recorded).
func FromFile(path string, seed int64) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	rec, err := trace.Load(f)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if trace.IsProbeRecording(rec) {
		return Captured("captured", rec, seed)
	}
	return Recorded("recorded", rec), nil
}
