package ha_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/netsim"
)

// TestCheckpointBytesPinned pins the checkpoint wire bytes of two default
// ADCP switches — one fresh, one after a parameter-server round — to
// sha256 digests. How register files and tables store their cells is an
// implementation detail; the canonical checkpoint must not move with it.
// Each snapshot must also survive a restore into a fresh switch of the
// same build byte-for-byte.
func TestCheckpointBytesPinned(t *testing.T) {
	ps := apps.PSConfig{Workers: 8, ModelSize: 32, Width: 4}
	cases := []struct {
		name  string
		build func() (*core.Switch, error)
		run   bool
		want  string
	}{
		{"fresh", func() (*core.Switch, error) { return core.New(core.DefaultConfig(), core.Programs{}) }, false,
			"189f360ff7fe8a870063c6d0180473350dba1c5096250f3d9fd0fe22281ef678"},
		{"paramserver", func() (*core.Switch, error) { return apps.NewParamServerADCP(core.DefaultConfig(), ps) }, true,
			"328389c7ec216a7155828edf88a7e3cd916eb0c1eaa62ea372075d4d14622076"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if tc.run {
				res, err := apps.RunParamServer(sw, netsim.DefaultConfig(sw.Config().Ports), ps, 1, 99)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Errors) > 0 {
					t.Fatalf("round errors: %v", res.Errors)
				}
			}
			snap, err := ha.Capture(sw)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(snap)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("checkpoint sha256 = %s (%d bytes), want %s", got, len(snap), tc.want)
			}
			fresh, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := ha.Restore(fresh, snap); err != nil {
				t.Fatal(err)
			}
			again, err := ha.Capture(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(again) != sum {
				t.Error("restore-then-capture changed the checkpoint bytes")
			}
		})
	}
}
