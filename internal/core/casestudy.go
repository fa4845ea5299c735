package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/engine"
	"dense802154/internal/frame"
	"dense802154/internal/stats"
	"dense802154/internal/units"
)

// The dense-network case study of §5: 1600 nodes uniformly distributed
// around a base station share 16 channels (100 nodes each); every node
// gathers 1 byte every 8 ms (1 kb/s), buffers until a 120-byte payload is
// full (one packet every 960 ms) and transmits it in the next superframe
// (BO = 6, Tib ≈ 983 ms, λ ≈ 42%). Path losses are uniform in 55-95 dB and
// every node link-adapts its transmit power.

// CaseStudyConfig describes the scenario.
type CaseStudyConfig struct {
	// Nodes is the total population (1600).
	Nodes int
	// Channels is the number of 2450 MHz channels shared (16).
	Channels int
	// DataBytesPerSecond is each node's sensing rate (125 B/s = 1 kb/s).
	DataBytesPerSecond float64
	// MinLossDB/MaxLossDB bound the uniform path-loss population.
	MinLossDB, MaxLossDB float64
	// LossGridPoints is the integration grid over the population.
	LossGridPoints int
}

// DefaultCaseStudy returns the paper's scenario.
func DefaultCaseStudy() CaseStudyConfig {
	return CaseStudyConfig{
		Nodes:              1600,
		Channels:           16,
		DataBytesPerSecond: 125,
		MinLossDB:          55,
		MaxLossDB:          95,
		LossGridPoints:     81, // 0.5 dB steps over 55-95
	}
}

// NodesPerChannel reports the per-channel population.
func (c CaseStudyConfig) NodesPerChannel() int {
	if c.Channels == 0 {
		return c.Nodes
	}
	return c.Nodes / c.Channels
}

// BufferingDelay reports how long a node takes to accumulate one payload.
func (c CaseStudyConfig) BufferingDelay(payloadBytes int) time.Duration {
	if c.DataBytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(payloadBytes) / c.DataBytesPerSecond * float64(time.Second))
}

// CaseStudyResult aggregates the population metrics the paper reports.
type CaseStudyResult struct {
	Config CaseStudyConfig
	Load   float64

	// Population averages (uniform over path loss).
	AvgPower units.Power // paper: 211 µW
	// MeanPrFail averages the per-node transmission failure probability
	// (paper: 16%).
	MeanPrFail float64
	// Coverage is the fraction of the population whose links close at
	// all (delay finite); nodes deep in the >88 dB tail never deliver.
	Coverage float64
	// MeanDelay/MedianDelay are over covered nodes (paper: 1.45 s, one
	// figure; both are reported because the retry-heavy high-loss tail
	// pulls the mean well above the median).
	MeanDelay    time.Duration
	MedianDelay  time.Duration
	NominalDelay time.Duration // Tib / (1 - mean PrFail)
	MeanEnergyJ  float64       // J/bit, mean over covered nodes

	// Population breakdown, averaged (Fig. 9a/9b inputs).
	Breakdown Breakdown
	States    StateTimes

	// Per-loss-grid details for plotting.
	LossGrid  []float64
	PowerUW   []float64
	PrFail    []float64
	LevelUsed []int
}

// RunCaseStudy integrates the model over the path-loss population. The
// base Params supply radio, BER, contention source, superframe and worker
// count; load and payload come from the scenario. The path-loss grid is
// evaluated concurrently on p.Workers goroutines with worker-count-
// independent results.
func RunCaseStudy(p Params, cfg CaseStudyConfig) (CaseStudyResult, error) {
	return RunCaseStudyCtx(context.Background(), p, cfg)
}

// RunCaseStudyCtx is RunCaseStudy with cancellation: a canceled ctx stops
// the population sweep promptly and returns ctx.Err(), so paper-scale
// integrations started on behalf of a remote client (the HTTP service) are
// cancelable end to end when the client disconnects.
func RunCaseStudyCtx(ctx context.Context, p Params, cfg CaseStudyConfig) (CaseStudyResult, error) {
	if cfg.LossGridPoints < 2 {
		return CaseStudyResult{}, fmt.Errorf("core: loss grid needs ≥2 points")
	}
	// Per-channel load: N/ch packets of Tpacket per beacon interval.
	load := p.Superframe.ChannelLoad(cfg.NodesPerChannel(), frame.PaperPacketDuration(p.PayloadBytes))
	p.Load = load
	if err := p.Validate(); err != nil {
		return CaseStudyResult{}, err
	}

	res := CaseStudyResult{Config: cfg, Load: load}
	grid := channel.LossGrid(cfg.MinLossDB, cfg.MaxLossDB, cfg.LossGridPoints)

	// Evaluate the population concurrently; the grid order of the results
	// is fixed by index, so the serial fold below is worker-count
	// independent.
	ms, err := engine.MapSlice(ctx, p.Workers, grid,
		func(i int, a float64) (Metrics, error) {
			q := p
			q.PathLossDB = a
			q.TXLevelIndex = AutoTXLevel
			return Evaluate(q)
		})
	if err != nil {
		return CaseStudyResult{}, err
	}

	var power, prfail, energy stats.Accumulator
	var covered stats.Proportion
	var delays []float64
	var bd Breakdown
	var st StateTimes
	for i, a := range grid {
		m := ms[i]
		res.LossGrid = append(res.LossGrid, a)
		res.PowerUW = append(res.PowerUW, m.AvgPower.MicroWatts())
		res.PrFail = append(res.PrFail, m.PrFail)
		res.LevelUsed = append(res.LevelUsed, m.TXLevelIndex)

		power.Add(float64(m.AvgPower))
		prfail.Add(m.PrFail)
		finite := !math.IsInf(m.EnergyPerBitJ, 0)
		covered.Observe(finite)
		if finite {
			energy.Add(m.EnergyPerBitJ)
			delays = append(delays, m.Delay.Seconds())
		}

		bd.Beacon += m.Breakdown.Beacon
		bd.Contention += m.Breakdown.Contention
		bd.Transmit += m.Breakdown.Transmit
		bd.Ack += m.Breakdown.Ack
		bd.IFS += m.Breakdown.IFS
		bd.Sleep += m.Breakdown.Sleep
		st.Shutdown += m.States.Shutdown
		st.Idle += m.States.Idle
		st.RX += m.States.RX
		st.TX += m.States.TX
	}
	n := units.Energy(len(grid))
	res.AvgPower = units.Power(power.Mean())
	res.MeanPrFail = prfail.Mean()
	res.Coverage = covered.Value()
	res.MeanEnergyJ = energy.Mean()
	res.MeanDelay = time.Duration(stats.Mean(delays) * float64(time.Second))
	res.MedianDelay = time.Duration(stats.Percentile(delays, 0.5) * float64(time.Second))
	res.NominalDelay = time.Duration(float64(p.Superframe.BeaconInterval()) / (1 - res.MeanPrFail))
	res.Breakdown = Breakdown{
		Beacon:     bd.Beacon / n,
		Contention: bd.Contention / n,
		Transmit:   bd.Transmit / n,
		Ack:        bd.Ack / n,
		IFS:        bd.IFS / n,
		Sleep:      bd.Sleep / n,
	}
	k := time.Duration(len(grid))
	res.States = StateTimes{
		Shutdown: st.Shutdown / k,
		Idle:     st.Idle / k,
		RX:       st.RX / k,
		TX:       st.TX / k,
	}
	return res, nil
}
