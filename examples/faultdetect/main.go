// Fault detection demo: strike one copy of a redundant pair with a
// single-bit transient fault — a simulated cosmic-ray hit — and watch the
// sphere-of-replication boundary catch the divergence.
//
// The demo injects three faults of increasing subtlety:
//
//  1. a flipped store-data bit (caught directly by the store comparator),
//  2. a flipped loaded value (propagates through dependent computation
//     before a downstream store differs),
//  3. a flipped high bit that the program masks off (architecturally
//     benign: correctly NOT reported — no false alarms, no wasted
//     recoveries).
//
// go run ./examples/faultdetect
package main

import (
	"fmt"
	"log"

	"repro/internal/fault"    //rmtlint:allow layering — example demonstrates the internal fault-injection hooks
	"repro/internal/pipeline" //rmtlint:allow layering — example demonstrates internal machine construction
	"repro/internal/sim"      //rmtlint:allow layering — example demonstrates internal machine construction
	"repro/internal/vm"       //rmtlint:allow layering — names the corruption point being injected
)

func main() {
	spec := sim.Spec{
		Mode:     sim.ModeSRT,
		Programs: []string{"compress"},
		Budget:   20000,
		Warmup:   5000,
		Config:   pipeline.DefaultConfig(),
		PSR:      true,
	}

	demos := []struct {
		what string
		f    fault.Transient
	}{
		{
			"flip bit 5 of a store's data in the trailing copy",
			fault.Transient{Target: fault.TrailingCopy, AtSeq: 9000, Point: vm.PointStoreData, Bit: 5},
		},
		{
			"flip bit 0 of a loaded value in the leading copy",
			fault.Transient{Target: fault.LeadingCopy, AtSeq: 9000, Point: vm.PointLoadValue, Bit: 0},
		},
		{
			"flip bit 62 of an ALU result the program masks away",
			fault.Transient{Target: fault.LeadingCopy, AtSeq: 9001, Point: vm.PointResult, Bit: 62},
		},
	}

	for i, d := range demos {
		fmt.Printf("%d. %s\n", i+1, d.what)
		res, err := fault.RunOne(spec, d.f)
		if err != nil {
			log.Fatal(err)
		}
		switch res.Outcome {
		case fault.Detected:
			fmt.Printf("   -> DETECTED after %d cycles: the output comparator flagged the mismatch\n\n",
				res.DetectionCycles)
		case fault.Masked:
			fmt.Printf("   -> masked: the corrupted bit never reached an output (benign fault)\n\n")
		case fault.NotFired:
			fmt.Printf("   -> the injection point was never reached\n\n")
		}
	}

	// Finish with a small random campaign to show aggregate coverage.
	fmt.Println("random campaign (30 single-bit transients):")
	sum, err := fault.Campaign(spec, 30, 0xDECAF, fault.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  detected %d, masked %d, not fired %d\n", sum.Detected, sum.Masked, sum.NotFired)
	fmt.Printf("  coverage of fired faults: %.0f%%\n", 100*sum.Coverage())
	fmt.Printf("  mean detection latency:   %.0f cycles\n", sum.MeanDetectionCycles)
	fmt.Println("\nno fault ever escaped silently: every store leaves the sphere only after comparison.")
}
