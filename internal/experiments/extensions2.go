package experiments

import (
	"fmt"
	"time"

	"dense802154/internal/battery"
	"dense802154/internal/core"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/radio"
	"dense802154/internal/stats"
	"dense802154/internal/units"
)

func init() {
	register(Experiment{
		Name:        "bosweep",
		Title:       "EXT3: beacon order exploration (eq. 12)",
		Description: "Average power, failure probability and delivery delay across beacon orders: the power/latency trade of the superframe structure the paper fixes at BO=6.",
		Run:         runBOSweep,
	})
	register(Experiment{
		Name:        "lifetime",
		Title:       "EXT4: battery lifetime and the 100 µW scavenging budget",
		Description: "What the case-study power means in supply terms: coin-cell and AA lifetimes, the vibration-harvesting budget, and how far the §5 improvements move the node toward self-powered operation.",
		Run:         runLifetime,
	})
	register(Experiment{
		Name:        "downlink",
		Title:       "EXT5: indirect (downlink) transmission cost",
		Description: "The Fig. 1b indirect delivery: pending-address advertising, data request, downlink frame — per-exchange radio-on time and energy, versus the uplink transaction.",
		Run:         runDownlink,
	})
}

func runBOSweep(opt Options) ([]*stats.Table, error) {
	tbl := stats.NewTable("Beacon order sweep (100 nodes, 120 B, path loss 75 dB)",
		"BO", "Tib", "load λ", "avg power", "PrFail", "delay")
	p := caseStudyParams(opt)
	for bo := uint8(2); bo <= 10; bo++ {
		sf, err := mac.NewSuperframe(bo, bo)
		if err != nil {
			return nil, err
		}
		q := p
		q.Superframe = sf
		// One packet per node per superframe: the load follows Tib.
		q.Load = sf.ChannelLoad(100, frame.PaperPacketDuration(q.PayloadBytes))
		if q.Load > 1 {
			tbl.AddRow(bo, sf.BeaconInterval().String(),
				fmt.Sprintf("%.2f", q.Load), "overloaded", "—", "—")
			continue
		}
		m, err := core.Evaluate(q)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(bo, sf.BeaconInterval().String(), fmt.Sprintf("%.3f", q.Load),
			m.AvgPower.String(), fmt.Sprintf("%.3f", m.PrFail),
			m.Delay.Round(time.Millisecond).String())
	}
	tbl.AddNote("the paper picks BO=6: the smallest interval at which one 120 B packet per node per superframe stays below ≈42%% load")
	return []*stats.Table{tbl}, nil
}

func runLifetime(opt Options) ([]*stats.Table, error) {
	p := caseStudyParams(opt)
	cfg := caseStudyConfig(opt)
	imp, err := core.EvaluateImprovements(p, cfg, core.DefaultImprovements())
	if err != nil {
		return nil, err
	}

	powers := []struct {
		name string
		p    units.Power
	}{
		{"CC2420 baseline", imp.Baseline},
		{imp.Rows[0].Name, imp.Rows[0].AvgPower},
		{imp.Rows[1].Name, imp.Rows[1].AvgPower},
		{imp.Rows[2].Name, imp.Rows[2].AvgPower},
		{"scavenging budget", 100 * units.MicroWatt},
	}
	coin := battery.CoinCellCR2032()
	aa := battery.AACell()
	harv := battery.VibrationHarvester()
	aaHarv := aa.WithHarvest(100 * units.MicroWatt)

	tbl := stats.NewTable("Supply implications of the case-study node",
		"node", "power", "CR2032", "AA", "AA + 100 µW harvest", "self-powered?")
	for _, row := range powers {
		dc, _ := coin.Lifetime(row.p)
		da, _ := aa.Lifetime(row.p)
		dh, _ := aaHarv.Lifetime(row.p)
		tbl.AddRow(row.name, row.p.String(),
			battery.LifetimeString(dc), battery.LifetimeString(da),
			battery.LifetimeString(dh),
			fmt.Sprintf("%v", harv.Sustainable(row.p)))
	}
	tbl.AddNote("paper: 'an existing goal is ... on the order of 100 µW, which would allow the device to obtain its power from the environment by energy scavenging'")
	return []*stats.Table{tbl}, nil
}

func runDownlink(opt Options) ([]*stats.Table, error) {
	r := radio.CC2420()
	tia, _ := r.Transition(radio.Idle, radio.RX)

	tbl := stats.NewTable("Indirect downlink exchange (node side, per delivery)",
		"payload [B]", "request on air", "data on air", "node RX time", "node TX time", "radio energy")
	for _, L := range []int{5, 20, 60, 100} {
		ex := mac.NewDownlinkExchange(L)
		// Radio energy: RX (plus two turnarounds) and TX at full power.
		rxE := r.RXPower.Times(ex.RxOnTime + 2*tia.Duration)
		txE := r.TXPowerAt(r.MaxTXLevel()).Times(ex.TxOnTime)
		tbl.AddRow(L,
			phy.TxDuration(ex.RequestBytes).String(),
			phy.TxDuration(ex.DataBytes).String(),
			ex.RxOnTime.String(), ex.TxOnTime.String(),
			(rxE + txE).String())
	}
	tbl.AddNote("plus one CSMA contention for the data request — the uplink machinery reused; the paper models the uplink only because data-gathering traffic dominates")

	q := mac.NewIndirectQueue()
	for i := 0; i < 9; i++ {
		_ = q.Queue(uint16(i%7+1), []byte{byte(i)})
	}
	cap := stats.NewTable("Coordinator pending queue", "property", "value")
	cap.AddRow("max advertised destinations", mac.MaxPendingAddresses)
	cap.AddRow("queued frames (9 offered to 7 devices)", q.Len())
	cap.AddRow("beacon pending list", fmt.Sprintf("%v", q.Pending()))
	cap.AddNote("like GTS, the 7-entry pending list bounds downlink fan-out per beacon in a dense network")
	return []*stats.Table{tbl, cap}, nil
}
