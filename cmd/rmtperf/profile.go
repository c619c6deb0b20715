package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path"
	"runtime/pprof"
	"strings"
	"time"
)

// pipelineStages are the timing pipeline's stage files, in pipeline order.
var pipelineStages = []string{"fetch", "dispatch", "issue", "retire"}

// profileLayers are the self-time buckets a CPU sample can land in. The
// module's packages map to their own names (internal/rmt is "rmt", the
// public repro/rmt facade is "facade", the benchmark's own code "bench");
// pipeline samples split by stage file; samples without a module frame go
// to net, json, gc or other.
var profileLayers = []string{
	"pipeline.fetch", "pipeline.dispatch", "pipeline.issue", "pipeline.retire", "pipeline.core",
	"ringq", "mem", "predict", "rmt", "lockstep", "isa", "stats", "program",
	"vm", "snap", "fault", "sim", "exp", "runner", "facade",
	"server", "progen", "analysis", "bench", "module_other",
	"net", "json", "gc", "other",
}

// namedPackages are the internal packages with a bucket of their own; the
// remaining internal packages share module_other.
var namedPackages = map[string]bool{
	"ringq": true, "mem": true, "predict": true, "rmt": true, "lockstep": true,
	"isa": true, "stats": true, "program": true, "vm": true, "snap": true,
	"fault": true, "sim": true, "exp": true, "runner": true, "server": true,
	"progen": true, "analysis": true,
}

// attribution is a parsed CPU profile: seconds of samples per self-time
// layer and per inclusive pipeline stage.
type attribution struct {
	total  float64
	layers map[string]float64
	stages map[string]float64
}

// attributedShare is the fraction of sampled CPU time that landed in a
// named layer rather than "other".
func (a *attribution) attributedShare() float64 {
	if a.total == 0 {
		return 0
	}
	return 1 - a.layers["other"]/a.total
}

type frame struct{ fn, file string }

// parseTraces reads `go tool pprof -traces -lines` text: a header, then one
// block per distinct stack, each opened by a dashed separator line; the
// block's first line carries the sample value before the leaf frame, and
// every frame line ends in "file:line", optionally followed by "(inline)".
func parseTraces(text string) (*attribution, error) {
	a := &attribution{layers: map[string]float64{}, stages: map[string]float64{}}
	var (
		value  float64
		frames []frame
		inside bool
	)
	flush := func() {
		if len(frames) > 0 {
			self, stage := attribute(frames)
			a.layers[self] += value
			if stage != "" {
				a.stages[stage] += value
			}
			a.total += value
		}
		frames = frames[:0]
		value = 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inside = true
			continue
		}
		trimmed := strings.TrimSpace(line)
		if !inside || trimmed == "" {
			continue
		}
		if len(frames) == 0 && value == 0 {
			v, rest, ok := strings.Cut(trimmed, " ")
			d, err := time.ParseDuration(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: sample line without a value: %q", line)
			}
			value = d.Seconds()
			trimmed = strings.TrimSpace(rest)
		}
		frames = append(frames, parseFrame(trimmed))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

func parseFrame(s string) frame {
	s = strings.TrimSuffix(s, " (inline)")
	// Function names may contain spaces (generic shapes), file paths do
	// not: the location is the last field.
	i := strings.LastIndex(s, " ")
	if i < 0 || !strings.Contains(s[i+1:], ":") {
		return frame{fn: s}
	}
	file, _, _ := strings.Cut(s[i+1:], ":")
	return frame{fn: strings.TrimSpace(s[:i]), file: file}
}

// funcPackage returns the import path of a symbolised Go function name:
// everything before the first '.' after the last '/' that precedes any
// receiver or type-argument bracket.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

func isModule(pkg string) bool {
	return pkg == "main" || pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/")
}

const modulePath = "repro"

// attribute assigns one stack (leaf first) to its self-time layer and its
// inclusive pipeline stage ("" outside the pipeline). The self layer is
// the innermost module frame's package, except that standard-library JSON
// and network code running under it is charged to json and net, so those
// costs show on their own however the module calls them.
func attribute(frames []frame) (self, stage string) {
	for _, f := range frames {
		if funcPackage(f.fn) == modulePath+"/internal/pipeline" {
			if st := stageOf(f.file); st != "" {
				stage = st
				break
			}
		}
	}
	for i, f := range frames {
		pkg := funcPackage(f.fn)
		if !isModule(pkg) {
			continue
		}
		if lib := libraryLayer(frames[:i]); lib != "" {
			return lib, stage
		}
		return moduleLayer(pkg, f.file), stage
	}
	if lib := libraryLayer(frames); lib != "" {
		return lib, stage
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(f.fn, "runtime.bgsweep"),
			strings.HasPrefix(f.fn, "runtime.bgscavenge"),
			strings.HasPrefix(f.fn, "runtime.gcStart"):
			return "gc", stage
		}
	}
	return "other", stage
}

// libraryLayer finds JSON or network library frames among standard-library
// frames.
func libraryLayer(frames []frame) string {
	for _, f := range frames {
		pkg := funcPackage(f.fn)
		if pkg == "encoding/json" {
			return "json"
		}
	}
	for _, f := range frames {
		pkg := funcPackage(f.fn)
		if pkg == "net" || strings.HasPrefix(pkg, "net/") {
			return "net"
		}
	}
	return ""
}

func stageOf(file string) string {
	base := strings.TrimSuffix(path.Base(file), ".go")
	for _, st := range pipelineStages {
		if base == st {
			return st
		}
	}
	return ""
}

func moduleLayer(pkg, file string) string {
	if path.Base(file) == "snapshot.go" {
		return "snap"
	}
	switch pkg {
	case "main":
		return "bench"
	case modulePath, modulePath + "/rmt":
		return "facade"
	case modulePath + "/internal/pipeline":
		if st := stageOf(file); st != "" {
			return "pipeline." + st
		}
		return "pipeline.core"
	}
	name, ok := strings.CutPrefix(pkg, modulePath+"/internal/")
	if ok && namedPackages[name] {
		return name
	}
	return "module_other"
}

// cpuProfile samples this process's CPU into a pprof file.
type cpuProfile struct {
	f *os.File
}

func startProfile(file string) (*cpuProfile, error) {
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// pprofTraces renders a profile file as `go tool pprof -traces -lines`
// text, the format parseTraces reads.
func pprofTraces(file string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-lines", file)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}
