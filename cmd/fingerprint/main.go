// Command fingerprint analyzes a probe capture (as written by
// gfwsim -dump) the way §3.3–§3.5 of the paper analyze real packet
// captures. It prints the §3.1 report's Figure 2–7 block for the
// capture — NR1 lengths, per-IP reuse, AS attribution, source ports,
// TCP timestamp processes and replay delays, computed by
// capture.Summarize — followed by the probe-type counts.
//
// Usage:
//
//	fingerprint CAPTURE.jsonl
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"sort"

	"sslab/internal/capture"
	"sslab/internal/probe"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fingerprint: ")
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fingerprint CAPTURE.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	l, err := capture.ReadJSON(f)
	if err != nil {
		log.Fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%d probes\n\n", l.Len())
	s := capture.Summarize(l)
	s.WriteFigures(w)

	fmt.Fprintln(w, "\nprobe types:")
	counts := l.TypeCounts()
	types := make([]probe.Type, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if counts[types[i]] != counts[types[j]] {
			return counts[types[i]] > counts[types[j]]
		}
		return types[i] < types[j]
	})
	for _, t := range types {
		fmt.Fprintf(w, "  %-8s %d\n", t, counts[t])
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
