package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// spanFuncs maps the function each span of a single-datapath,
// single-window traced run wraps to the span's layer, so a CPU profile
// of that run can be charged to layers the way the ledger charges wall
// time.
var spanFuncs = map[string]string{
	"main.(*chunkSource).fill":                     "trace",
	"perfq/internal/switchsim.(*Datapath).Feed":    "switchsim",
	"perfq/internal/switchsim.(*Datapath).Sync":    "shard",
	"perfq/internal/switchsim.(*Datapath).EndFeed": "shard",
	"perfq/internal/switchsim.(*Datapath).Flush":   "backing",
	"perfq/internal/switchsim.(*Datapath).Collect": "exec",
	"perfq.(*Table).Format":                        "exec",
}

// profileShares reads a CPU profile and charges the CPU time of every
// sample labelled perfbench=run to the layer of its innermost frame in
// spanFuncs ("" when none matches). It returns each layer's share of
// the labelled CPU time and the number of labelled samples.
func profileShares(path string) (map[string]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	shares, n := p.layerShares()
	return shares, n, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strings   []string
	samples   []pSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
}

type pSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // key, str string indices
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// layerShares charges each labelled sample's CPU time to its layer. A
// CPU profile's sample values are (sample count, CPU nanoseconds).
func (p *profile) layerShares() (map[string]float64, int) {
	byLayer := map[string]float64{}
	var total float64
	n := 0
	for _, s := range p.samples {
		if !s.labelled(p) || len(s.values) < 2 {
			continue
		}
		n += int(s.values[0])
		v := float64(s.values[1])
		total += v
		byLayer[p.layerOf(s)] += v
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, n
}

func (s *pSample) labelled(p *profile) bool {
	for _, l := range s.labels {
		if p.str(l[0]) == "perfbench" && p.str(l[1]) == "run" {
			return true
		}
	}
	return false
}

func (p *profile) layerOf(s pSample) string {
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if layer, ok := spanFuncs[p.str(p.functions[fn])]; ok {
				return layer
			}
		}
	}
	return ""
}

// compareShares lines the ledger's layer shares of wall time up against
// the profile's shares of CPU time and returns the largest absolute
// difference over the layers either side names.
func compareShares(w io.Writer, l ledger, prof map[string]float64) float64 {
	ledgerShare := map[string]float64{"": l.ResidualMs / l.WallMs}
	for _, r := range l.Rows {
		ledgerShare[r.Layer] = r.Share
	}
	layers := map[string]bool{}
	for k := range ledgerShare {
		layers[k] = true
	}
	for k := range prof {
		layers[k] = true
	}
	worst := 0.0
	fmt.Fprintf(w, "ledger vs pprof (share of the run span's wall time vs of its CPU samples):\n")
	for _, k := range sortedKeys(layers) {
		label := k
		if k == "" {
			label = "residual"
		}
		d := math.Abs(ledgerShare[k] - prof[k])
		worst = math.Max(worst, d)
		fmt.Fprintf(w, "  %-10s ledger %6.2f%%  pprof %6.2f%%  diff %5.2f pp\n", label, 100*ledgerShare[k], 100*prof[k], 100*d)
	}
	return worst
}

// parseProfile decodes the gzip-free bytes of a profile.proto message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			s, err := parseSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			return p.parseLocation(data)
		case 5:
			return p.parseFunction(data)
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

func parseSample(b []byte) (pSample, error) {
	var s pSample
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return eachVarint(v, data, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return eachVarint(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
		case 3:
			var l [2]int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					l[num-1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		}
		return nil
	})
	return s, err
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			return eachField(data, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locations[id] = fns
	return err
}

func (p *profile) parseFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(num int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	p.functions[id] = name
	return err
}

var errProto = errors.New("malformed profile")

// eachField walks a protobuf message, passing each field's number and
// either its varint/fixed value or its length-delimited bytes (data is
// nil for non-length-delimited fields).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	r := bytes.NewReader(b)
	for r.Len() > 0 {
		key, err := binary.ReadUvarint(r)
		if err != nil {
			return errProto
		}
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, err = binary.ReadUvarint(r); err != nil {
				return errProto
			}
		case 1:
			var x [8]byte
			if _, err := io.ReadFull(r, x[:]); err != nil {
				return errProto
			}
			v = binary.LittleEndian.Uint64(x[:])
		case 2:
			n, err := binary.ReadUvarint(r)
			if err != nil || n > uint64(r.Len()) {
				return errProto
			}
			data = make([]byte, n)
			if _, err := io.ReadFull(r, data); err != nil {
				return errProto
			}
		case 5:
			var x [4]byte
			if _, err := io.ReadFull(r, x[:]); err != nil {
				return errProto
			}
			v = uint64(binary.LittleEndian.Uint32(x[:]))
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (data set)
// or not (one value v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return errProto
		}
		fn(x)
	}
	return nil
}
