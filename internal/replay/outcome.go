package replay

// Canonical outcome encoding: the byte string two executions must agree on
// for the replayer to declare parity. It covers exactly the
// delivery-order-independent projection of a detection list — node,
// root-ness, aggregate identity (origin, sequence), span and the aggregate's
// clocks — sorted by (Node, Agg.Seq), which is a total order because a
// node's aggregates are numbered by a single writer. Detection.Set is
// deliberately excluded: the members backing a solution depend on which
// queue heads were resident when the cascade fired, which is delivery-order
// state, not predicate truth.

import (
	"encoding/binary"
	"sort"

	"hierdet/internal/livenet"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
)

// AppendOutcome appends the canonical encoding of dets to dst and returns
// the extended buffer along with the number of detections encoded. The
// input is re-sorted into canonical order in place.
func AppendOutcome(dst []byte, dets []livenet.Detection) ([]byte, int) {
	sortDetections(dets)
	for _, d := range dets {
		dst = binary.AppendUvarint(dst, uint64(d.Node))
		if d.AtRoot {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(d.Det.Agg.Origin))
		dst = binary.AppendUvarint(dst, uint64(d.Det.Agg.Seq))
		dst = binary.AppendUvarint(dst, uint64(len(d.Det.Agg.Span)))
		for _, p := range d.Det.Agg.Span {
			dst = binary.AppendUvarint(dst, uint64(p))
		}
		dst = appendClock(dst, d.Det.Agg.Lo)
		dst = appendClock(dst, d.Det.Agg.Hi)
	}
	return dst, len(dets)
}

// MergeDetections concatenates the per-participant detection lists of a
// deployment into one canonically ordered list.
func MergeDetections(parts ...[]livenet.Detection) []livenet.Detection {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]livenet.Detection, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	sortDetections(out)
	return out
}

// sortDetections orders by (Node, Agg.Seq) — each cluster already returns
// its detections in this order (teardown sorts), so merging participants is the
// only case with real work to do.
func sortDetections(dets []livenet.Detection) {
	sort.Slice(dets, func(i, j int) bool {
		if dets[i].Node != dets[j].Node {
			return dets[i].Node < dets[j].Node
		}
		return dets[i].Det.Agg.Seq < dets[j].Det.Agg.Seq
	})
}

func appendClock(dst []byte, vc vclock.VC) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vc)))
	for _, c := range vc {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// OutcomeRec is one decoded entry of a canonical outcome blob — the
// projection AppendOutcome encodes, in a printable form for parity-failure
// triage (which detection diverged, and in which field).
type OutcomeRec struct {
	Node   int
	AtRoot bool
	Origin int
	Seq    int
	Span   []int
	Lo, Hi []int
}

// DecodeOutcome parses a canonical outcome blob (Trace.Outcome or
// Result.Outcome). Errors wrap wire.ErrCorrupt or wire.ErrTruncated.
func DecodeOutcome(data []byte) ([]OutcomeRec, error) {
	d := decoder{rest: data}
	var out []OutcomeRec
	for len(d.rest) > 0 && d.err == nil {
		var r OutcomeRec
		r.Node = int(d.count("outcome node", maxTraceNodes))
		switch d.byte("outcome atRoot") {
		case 0:
		case 1:
			r.AtRoot = true
		default:
			if d.err == nil {
				d.fail("outcome atRoot byte: %w", wire.ErrCorrupt)
			}
		}
		r.Origin = int(d.count("outcome origin", maxTraceNodes))
		r.Seq = int(d.count("outcome seq", maxOutcomeLen))
		r.Span = d.intSlice("outcome span")
		r.Lo = d.intSlice("outcome lo clock")
		r.Hi = d.intSlice("outcome hi clock")
		if d.err == nil {
			out = append(out, r)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// intSlice reads a uvarint-counted list of uvarint values.
func (d *decoder) intSlice(what string) []int {
	n := d.count(what+" length", maxTraceNodes)
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.rest)) {
		d.fail("%s of %d entries in %d bytes: %w", what, n, len(d.rest), wire.ErrTruncated)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.count(what, 1<<62))
	}
	return out
}
