//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package dist

// The engines' message set: every mpi body they send, and the checkpoint
// file, is one of these little-endian layouts, nesting mpi frames for the
// variable parts. Decoders check lengths before allocating and reject
// trailing bytes, so a body either fails to decode or re-encodes to itself.
//
//	tally batch  n × 60 B: patch i32, point S T R2 Theta f64, power R G B f64
//	flight batch n × 96 B: origin xyz f64, dir xyz f64, power xyz f64,
//	             polarization f64, bounces i64, rng state u64
//	snapshot     RankStats 6×i64, core.Stats 6×i64 (field order), then per
//	             owned, tallied section a frame: tag unit, body
//	             Tree.MarshalBinary
//	traffic row  n × i64 messages, then n × i64 bytes
//	checkpoint   frame tag CheckpointVersion, body i64 round; then per rank
//	             a frame: tag rank, body its snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/vecmath"
)

const (
	tallyBytes  = 60
	flightBytes = 96
)

// appendTally appends one tally's 60-byte record to a batch.
func appendTally(b []byte, t core.Tally) []byte {
	n := len(b)
	b = slices.Grow(b, tallyBytes)[:n+tallyBytes]
	binary.LittleEndian.PutUint32(b[n:], uint32(t.Patch))
	putFloats(b[n+4:], t.Point.S, t.Point.T, t.Point.R2, t.Point.Theta, t.Power.R, t.Power.G, t.Power.B)
	return b
}

func tallyAt(p []byte) core.Tally {
	return core.Tally{
		Patch: int32(binary.LittleEndian.Uint32(p)),
		Point: bintree.Point{S: f64(p[4:]), T: f64(p[12:]), R2: f64(p[20:]), Theta: f64(p[28:])},
		Power: bintree.RGB{R: f64(p[36:]), G: f64(p[44:]), B: f64(p[52:])},
	}
}

// appendFlight appends one flight's 96-byte record to a batch.
func appendFlight(b []byte, f geoFlight) []byte {
	n := len(b)
	b = slices.Grow(b, flightBytes)[:n+flightBytes]
	o, d, w := f.Ray.Origin, f.Ray.Dir, f.Power
	putFloats(b[n:], o.X, o.Y, o.Z, d.X, d.Y, d.Z, w.X, w.Y, w.Z, f.Polarization)
	binary.LittleEndian.PutUint64(b[n+80:], uint64(f.Bounces))
	binary.LittleEndian.PutUint64(b[n+88:], f.RngState)
	return b
}

func flightAt(p []byte) geoFlight {
	v := func(off int) vecmath.Vec3 {
		return vecmath.Vec3{X: f64(p[off:]), Y: f64(p[off+8:]), Z: f64(p[off+16:])}
	}
	return geoFlight{
		Flight: core.Flight{
			Ray:          vecmath.Ray{Origin: v(0), Dir: v(24)},
			Power:        v(48),
			Polarization: f64(p[72:]),
			Bounces:      int(int64(binary.LittleEndian.Uint64(p[80:]))),
		},
		RngState: binary.LittleEndian.Uint64(p[88:]),
	}
}

// appendBatch decodes a batch of whole size-byte records, read by at, onto dst.
func appendBatch[T any](dst []T, b []byte, size int, at func([]byte) T) ([]T, error) {
	if len(b)%size != 0 {
		return dst, fmt.Errorf("dist: %d-byte batch is not a whole number of %d-byte records", len(b), size)
	}
	for i := 0; i < len(b); i += size {
		dst = append(dst, at(b[i:i+size]))
	}
	return dst, nil
}

func putFloats(p []byte, vs ...float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
}

func f64(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }

// appendSnapshot appends a rank snapshot's encoding.
func appendSnapshot(b []byte, s *RankSnapshot) ([]byte, error) {
	rs, st := &s.RankStats, &s.Stats
	for _, v := range [...]int64{
		int64(rs.Rank), rs.PhotonsTraced, rs.TalliesApplied, rs.TalliesForwarded, rs.Forwards, int64(rs.Batches),
		st.PhotonsEmitted, st.Reflections, st.Absorptions, st.Escapes, st.BinSplits, st.TotalPathLength,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	buf := bytes.NewBuffer(b)
	for _, sec := range s.Sections {
		tree, err := sec.Tree.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if err := mpi.WriteFrame(buf, sec.Unit, tree); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeSnapshot decodes a rank snapshot into fresh trees.
func decodeSnapshot(b []byte) (*RankSnapshot, error) {
	const counters = 12 * 8
	if len(b) < counters {
		return nil, fmt.Errorf("dist: %d-byte rank snapshot is shorter than its counters", len(b))
	}
	c := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i:])) }
	s := &RankSnapshot{
		RankStats: RankStats{Rank: int(c(0)), PhotonsTraced: c(1), TalliesApplied: c(2),
			TalliesForwarded: c(3), Forwards: c(4), Batches: int(c(5))},
		Stats: core.Stats{PhotonsEmitted: c(6), Reflections: c(7), Absorptions: c(8),
			Escapes: c(9), BinSplits: c(10), TotalPathLength: c(11)},
	}
	err := eachFrame(bytes.NewReader(b[counters:]), func(unit int, body []byte) error {
		tree := new(bintree.Tree)
		if err := tree.UnmarshalBinary(body); err != nil {
			return fmt.Errorf("dist: snapshot section %d: %w", unit, err)
		}
		s.Sections = append(s.Sections, OwnedSection{Unit: unit, Tree: tree})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// appendTrafficRow appends one rank's outgoing row of the pair matrix.
func appendTrafficRow(b []byte, msgs, bytes []int64) []byte {
	for _, v := range slices.Concat(msgs, bytes) {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// decodeTrafficRow decodes a traffic row of the given world size.
func decodeTrafficRow(b []byte, size int) (msgs, bytes []int64, err error) {
	if len(b) != 16*size {
		return nil, nil, fmt.Errorf("dist: %d-byte traffic row, want %d for %d ranks", len(b), 16*size, size)
	}
	row, err := appendBatch(nil, b, 8, func(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p)) })
	return row[:size:size], row[size:], err
}

// MarshalBinary encodes the checkpoint as frames: a header frame tagged
// CheckpointVersion whose body is the round, then each rank's snapshot
// bytes, as gathered, in a frame tagged with its rank.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	if err := mpi.WriteFrame(&b, CheckpointVersion, binary.LittleEndian.AppendUint64(nil, uint64(ck.Round))); err != nil {
		return nil, err
	}
	for rank, s := range ck.Snaps {
		if err := mpi.WriteFrame(&b, rank, s); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// UnmarshalBinary decodes a checkpoint written by MarshalBinary, rejecting
// other versions. The snapshots stay encoded until a rank restores one.
func (ck *Checkpoint) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	version, head, err := mpi.ReadFrame(r)
	if err != nil {
		return fmt.Errorf("dist: checkpoint header: %w", err)
	}
	if version != CheckpointVersion || len(head) != 8 {
		return fmt.Errorf("dist: checkpoint version %d with a %d-byte header, this binary speaks %d", version, len(head), CheckpointVersion)
	}
	var snaps [][]byte
	err = eachFrame(r, func(rank int, body []byte) error {
		if rank != len(snaps) {
			return fmt.Errorf("dist: checkpoint slot %d holds rank %d", len(snaps), rank)
		}
		snaps = append(snaps, body)
		return nil
	})
	if err != nil {
		return err
	}
	ck.Round, ck.Snaps = int(int64(binary.LittleEndian.Uint64(head))), snaps
	return nil
}

// eachFrame calls fn on every frame left in r, which must end on a frame
// boundary.
func eachFrame(r io.Reader, fn func(tag int, body []byte) error) error {
	for {
		tag, body, err := mpi.ReadFrame(r)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(tag, body)
		}
		if err != nil {
			return err
		}
	}
}
