package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer CPU shares
// without instrumenting the program: every sample is charged to the layer
// of its innermost repository frame. The standard library writes profiles
// but has no reader, so a minimal decoder for the fields used here
// (samples, locations, functions, string table) of the profile.proto
// format follows.

// layerOf maps the repository's internal packages to the benchmark's
// layers. Packages not listed (the scenario driver, workload generator,
// router, observability plane and this benchmark) are the "scenario"
// layer: the harness around the protocol.
var layerOf = map[string]string{
	"vclock":    "vclock",
	"simnet":    "simnet",
	"fd":        "fd",
	"consensus": "consensus",
	"core":      "core",
	"sm":        "core",
	"env":       "core",
	"action":    "core",
	"trace":     "core",
	"wal":       "wal",
	"reduce":    "reduce",
	"verify":    "reduce",
	"pattern":   "reduce",
	"event":     "reduce",
}

// setupFuncs are the run-setup entry points: a sample with one of them on
// its stack is charged to setup, whatever layer its innermost frame is in.
var setupFuncs = map[string]bool{
	"xability/internal/core.NewCluster":                true,
	"xability/internal/sm.New":                         true,
	"xability/internal/env.New":                        true,
	"xability/internal/simnet.New":                     true,
	"xability/internal/simnet.(*Network).Reset":        true,
	"xability/internal/simnet.(*Network).ResetShared":  true,
	"xability/internal/simnet.(*Network).resetDrained": true,
}

// Layers is the partition of CPU samples: every sample lands in exactly
// one of these, so their shares sum to 1.
var Layers = []string{"setup", "vclock", "simnet", "fd", "consensus", "core", "wal", "reduce", "scenario", "runtime.gc", "runtime.sched", "runtime.other"}

// handoffFuncs are the runtime's goroutine hand-off primitives: channel
// operations, parking and waking.
var handoffFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.park_m", "runtime.ready", "runtime.semacquire",
	"runtime.semrelease", "runtime.notewakeup", "runtime.futex", "runtime.wakep",
	"sync.(*Mutex).lockSlow", "sync.(*Mutex).unlockSlow", "runtime.lock2", "runtime.unlock2",
}

// gcFuncs and schedFuncs classify samples with no repository frame: the
// background collector and the scheduler.
var (
	gcFuncs    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.goexit0", "runtime.mstart"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// foldProfile decodes a gzipped CPU profile and returns the share of CPU
// time per layer plus three overlapping figures: "vclock.handoff" (runtime
// hand-off frames below a vclock frame), "runtime.alloc" (mallocgc below a
// repository frame) and the sample count.
func foldProfile(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	by := make(map[string]int64)
	var total, handoff, alloc int64
	for _, s := range p.samples {
		stack := p.stack(s.locs)
		layer, at := attribute(stack)
		by[layer] += s.cpu
		total += s.cpu
		leaf := stack[:max(at, 0)]
		if layer == "vclock" {
			for _, fn := range leaf {
				if hasAnyPrefix(fn, handoffFuncs) {
					handoff += s.cpu
					break
				}
			}
		}
		if at >= 0 {
			for _, fn := range leaf {
				if strings.HasPrefix(fn, "runtime.mallocgc") {
					alloc += s.cpu
					break
				}
			}
		}
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	shares := make(map[string]float64, len(Layers)+3)
	for _, l := range Layers {
		shares[l] = float64(by[l]) / float64(total)
	}
	shares["vclock.handoff"] = float64(handoff) / float64(total)
	shares["runtime.alloc"] = float64(alloc) / float64(total)
	shares["samples"] = float64(len(p.samples))
	return shares, nil
}

// attribute returns a stack's layer and the index of the frame that
// decided it (-1 when no repository frame is on the stack). Stacks are
// leaf first.
func attribute(stack []string) (string, int) {
	for i, fn := range stack {
		if setupFuncs[fn] {
			return "setup", i
		}
	}
	for i, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, "xability/"); ok {
			if p, ok := strings.CutPrefix(pkg, "internal/"); ok {
				if l, ok := layerOf[strings.SplitN(p, ".", 2)[0]]; ok {
					return l, i
				}
			}
			return "scenario", i
		}
		if strings.HasPrefix(fn, "main.") {
			return "scenario", i
		}
	}
	for _, fn := range stack {
		switch {
		case hasAnyPrefix(fn, gcFuncs):
			return "runtime.gc", -1
		case hasAnyPrefix(fn, schedFuncs):
			return "runtime.sched", -1
		}
	}
	return "runtime.other", -1
}

type sample struct {
	locs []uint64
	cpu  int64
}

type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location → function ids, innermost first
	funcs   map[uint64]int64    // function → name string index
	strs    []string
}

// stack returns the function names of a sample's locations, leaf first,
// inlined frames expanded.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					vals = appendPacked(vals, wire, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.cpu = int64(vals[len(vals)-1]) // [samples, cpu nanoseconds]
			}
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			name := int64(-1)
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

// appendPacked appends one repeated-varint field occurrence, which the
// encoder writes either packed (wire type 2) or as a single varint.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks the protobuf fields of one message, calling fn with each
// field's number, wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
