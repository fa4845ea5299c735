// Quickstart: evaluate the average power of a single 802.15.4 sensor node
// with the paper's analytical model, through the unified query API — one
// declarative Query in, one tagged ResultSet out.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"dense802154"
)

func main() {
	// A Query names an operating point and what to compute over it. Empty
	// params mean the paper's case-study node: CC2420 radio, 120-byte
	// packets, beacon order 6, 43% channel load, 75 dB path loss,
	// link-adapted transmit power. The same JSON-shaped document works
	// in-process (here), over HTTP (POST /v2/query) and on the command
	// line (wsn-query).
	rs, err := dense802154.Run(context.Background(), dense802154.Query{
		Kind: dense802154.KindEvaluate,
	})
	if err != nil {
		panic(err)
	}
	m := rs.Results[0].Metrics.Metrics()
	p := dense802154.DefaultParams()

	fmt.Println("One 802.15.4 microsensor node in a dense network:")
	fmt.Printf("  transmit level      : %+g dBm (link-adapted for %g dB path loss)\n",
		m.TXPowerDBm, p.PathLossDB)
	fmt.Printf("  average power       : %v\n", m.AvgPower)
	fmt.Printf("  transmission failure: %.1f%%\n", m.PrFail*100)
	fmt.Printf("  delivery delay      : %v\n", m.Delay.Round(1e6))
	fmt.Printf("  energy per data bit : %.0f nJ\n", m.EnergyPerBitJ*1e9)

	sh := m.Breakdown.Share()
	fmt.Println("\nWhere the energy goes (paper Fig. 9a):")
	labels := []string{"beacon", "contention", "transmit", "ack", "ifs"}
	for i, l := range labels {
		fmt.Printf("  %-10s %5.1f%%\n", l, sh[i]*100)
	}

	fr := m.States.Fractions()
	fmt.Println("\nWhere the time goes (paper Fig. 9b):")
	states := []string{"shutdown", "idle", "rx", "tx"}
	order := []int{0, 1, 2, 3}
	for _, i := range order {
		fmt.Printf("  %-10s %8.4f%%\n", states[i], fr[i]*100)
	}

	// The wire form of the same result (what /v2/query and wsn-query
	// print) is byte-stable: rs.Encode() yields the same bytes on every
	// run at any worker count.
	body, _ := rs.Encode()
	fmt.Printf("\nResultSet encoding: %d bytes, kind=%s, %d task(s)\n",
		len(body), rs.Kind, len(rs.Results))
}
