package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/mat"
	"repro/internal/packet"
	"repro/internal/stats"
)

// KeyRateRow is one point of the Figure 6 / §3.2 key-rate experiment.
type KeyRateRow struct {
	Width int
	// RMTPasses is the traversals one packet needs on RMT (scalar match).
	RMTPasses int
	// RMTKeyRate and ADCPKeyRate are modeled keys/s on a 12.8 Tbps
	// switch (≈6.48 Bpps at 247 B min packet).
	RMTKeyRate  float64
	ADCPKeyRate float64
	// Speedup = ADCP / RMT.
	Speedup float64
	// Goodput of a width-wide KV packet (useful bytes / wire bytes).
	Goodput float64
	// MeasuredCyclesRMT/ADCP are simulator-verified stage cycles to match
	// one width-wide batch.
	MeasuredCyclesRMT  int
	MeasuredCyclesADCP int
}

// KeyRate runs the array-width sweep: the §3.2 claim that 8/16-wide array
// matching buys roughly an order of magnitude in application operation
// rate, verified against actual stage-memory cycle accounting.
func KeyRate(widths []int) (*stats.Table, []KeyRateRow, error) {
	if len(widths) == 0 {
		widths = []int{1, 2, 4, 8, 16}
	}
	pps := analytic.SwitchPPS(12.8, 247)
	t := stats.NewTable(
		"Figure 6 / §3.2: key processing rate vs array width (12.8 Tbps switch)",
		"keys/pkt", "RMT passes", "RMT keys/s", "ADCP keys/s", "speedup", "goodput",
	)
	var rows []KeyRateRow
	for _, w := range widths {
		if w < 1 || w > mat.StageMAUs {
			return nil, nil, fmt.Errorf("experiments: width %d out of [1,%d]", w, mat.StageMAUs)
		}
		row := KeyRateRow{
			Width:       w,
			RMTPasses:   analytic.Passes(w, 1),
			RMTKeyRate:  analytic.KeyRate(pps, w, 1),
			ADCPKeyRate: analytic.KeyRate(pps, w, mat.StageMAUs),
			Goodput:     analytic.Goodput(w, 8, packet.BaseHeaderLen+packet.KVHeaderFixedLen),
		}
		row.Speedup = row.ADCPKeyRate / row.RMTKeyRate

		// Cross-validate with the stage-memory simulator: cycles to match
		// one w-wide batch.
		rmtMem := mat.NewStageMemory(mat.ModeScalar, mat.StageMAUs, 64*1024, 1)
		adcpMem := mat.NewStageMemory(mat.ModeArray, mat.StageMAUs, 64*1024, 1)
		keys := make([]uint64, w)
		for i := range keys {
			keys[i] = uint64(i)
			if err := rmtMem.Install(uint64(i), mat.Result{}); err != nil {
				return nil, nil, fmt.Errorf("experiments: width %d: RMT install: %w", w, err)
			}
			if err := adcpMem.Install(uint64(i), mat.Result{}); err != nil {
				return nil, nil, fmt.Errorf("experiments: width %d: ADCP install: %w", w, err)
			}
		}
		// RMT scalar: one key per traversal (cycle).
		for _, k := range keys {
			rmtMem.Lookup(k)
		}
		row.MeasuredCyclesRMT = int(rmtMem.Cycles())
		results := make([]mat.Result, w)
		hits := make([]bool, w)
		if _, err := adcpMem.LookupBatch(keys, results, hits); err != nil {
			return nil, nil, err
		}
		row.MeasuredCyclesADCP = int(adcpMem.Cycles())

		rows = append(rows, row)
		wl := lbl("width", li(w))
		record("keyrate.speedup", row.Speedup, wl)
		record("keyrate.rmt_keys_per_s", row.RMTKeyRate, wl)
		record("keyrate.adcp_keys_per_s", row.ADCPKeyRate, wl)
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", row.RMTPasses),
			stats.FormatSI(row.RMTKeyRate),
			stats.FormatSI(row.ADCPKeyRate),
			fmt.Sprintf("%.1f×", row.Speedup),
			fmt.Sprintf("%.1f%%", 100*row.Goodput),
		)
	}
	return t, rows, nil
}
