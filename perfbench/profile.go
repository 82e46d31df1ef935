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

// cpuSample is one CPU profile sample: the CPU nanoseconds it stands for
// and its call stack as function names, innermost frame first (inlined
// frames expanded innermost first, as pprof orders them).
type cpuSample struct {
	ns    int64
	stack []string
}

// cpuBuckets are the host.cpu_s.* buckets in report order: the
// simulator's packages, the benchmark's own code, the Go runtime, the
// garbage collector, and every other package of the repository.
var cpuBuckets = []string{
	"vtime", "marcel", "netsim", "madeleine", "core", "adi", "chself", "smpplug",
	"mpi", "cluster", "route", "trace", "bench", "runtime", "gc", "other",
}

const repoPrefix = "mpichmad/internal/"

// gcRoots are the runtime functions at the bottom of a GC worker's
// stack, plus the pseudo-frame pprof uses for GC samples without one.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// bucketOf charges a stack to the innermost frame in a
// mpichmad/internal/<pkg> package, or in the benchmark itself (package
// main); stacks with neither go to gc when a GC worker runs them and to
// runtime otherwise.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range cpuBuckets {
				if b == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range stack {
		if gcRoots[fn] {
			return "gc"
		}
	}
	return "runtime"
}

// attribute sums the samples' CPU time per bucket, in nanoseconds. Every
// sample lands in exactly one bucket, so the buckets add up to the
// profile total.
func attribute(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64, len(cpuBuckets))
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.ns
	}
	return out
}

// parseCPUProfile decodes the gzip-compressed pprof protobuf that
// runtime/pprof writes for a CPU profile into samples. It reads only the
// fields attribution needs: sample_type, sample, location, function and
// string_table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		types   [][2]uint64 // sample_type: (type, unit) string indices
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		var err error
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err = eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
		case 2: // sample
			var s rawSample
			err = eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // function
			var id, name uint64
			err = eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: s.vals[cpu]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				cs.stack = append(cs.stack, str(funcs[f]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire types 0, 1 and 5) or its bytes (wire
// type 2).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field's values: one varint v, or
// a packed run in data.
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst, data = append(*dst, x), data[n:]
	}
	return nil
}
