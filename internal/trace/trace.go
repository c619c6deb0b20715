// Package trace records pipeline events and renders them. An EventLog
// attached to a machine's cores receives one instruction event per retired
// instruction, which carries the cycles it was fetched, dispatched,
// issued, completed and retired; squashes, sphere-of-replication
// comparisons and fault injections are point events. Format draws
// instruction events as a pipeline diagram, and WriteChromeJSON exports
// the whole log for Perfetto. The package imports nothing of the
// simulator's, so any layer may record into it.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Format renders the first n instruction events of core 0, in retire
// order, as a pipeline diagram sorted by (tid, seq):
//
//	t0      0 cyc=112     pc=0     ldi r20, 1048576           F---D---I++++CX
//
// F fetch, D dispatch, I issue, C complete, X retire; '-' waiting in the
// rate-matching buffer, '+' executing, '.' waiting to retire.
func Format(evs []Event, n int) string {
	var instrs []Event
	for _, ev := range evs {
		if len(instrs) == n {
			break
		}
		if ev.Kind == KindInstr && ev.Core == 0 {
			instrs = append(instrs, ev)
		}
	}
	sort.Slice(instrs, func(i, j int) bool {
		if instrs[i].TID != instrs[j].TID {
			return instrs[i].TID < instrs[j].TID
		}
		return instrs[i].Seq < instrs[j].Seq
	})
	var b strings.Builder
	for _, ev := range instrs {
		// Each line's diagram starts at its own fetch cycle (printed as a
		// prefix) so deep traces stay narrow.
		origin := ev.Cycle
		line := make([]byte, 0, 64)
		pos := func(cycle uint64) int {
			if cycle < origin {
				return 0
			}
			return int(cycle - origin)
		}
		put := func(p int, ch byte, fill byte) {
			for len(line) < p {
				line = append(line, fill)
			}
			if len(line) == p {
				line = append(line, ch)
			} else if p >= 0 && p < len(line) {
				line[p] = ch
			}
		}
		put(pos(ev.Cycle), 'F', ' ')
		put(pos(ev.Dispatch), 'D', '-')
		put(pos(ev.Issue), 'I', '-')
		put(pos(ev.Done), 'C', '+')
		retirePos := pos(ev.End)
		if retirePos == pos(ev.Done) {
			retirePos++ // retirement never precedes completion visually
		}
		put(retirePos, 'X', '.')
		fmt.Fprintf(&b, "t%d %6d cyc=%-7d pc=%-5d %-26s %s\n",
			ev.TID, ev.Seq, ev.Cycle, ev.PC, ev.Text, line)
	}
	return b.String()
}
