// Package trace defines the performance-oriented record schema at the heart
// of the query system: one record per packet per queue, carrying both the
// parseable packet headers and the queue-level performance metadata
// (enqueue/dequeue timestamps, queue size, path). This is the abstract
// table T of the paper's §2:
//
//	(pkt_hdr, qid, tin, tout, qsize, pkt_path)
//
// Queries are written against this schema; switches materialize only the
// parts a compiled query needs.
package trace

import (
	"io"
	"math"

	"perfq/internal/packet"
)

// Infinity is the tout value assigned to dropped packets ("If a packet is
// dropped at a queue, we assign tout the value infinity").
const Infinity int64 = math.MaxInt64

// QueueID identifies a specific queue on a specific switch: the switch ID
// occupies the upper 16 bits and the queue index the lower 16.
type QueueID uint32

// MakeQueueID composes a QueueID from a switch ID and a queue index.
func MakeQueueID(switchID, queue uint16) QueueID {
	return QueueID(uint32(switchID)<<16 | uint32(queue))
}

// Switch returns the switch portion of the queue ID.
func (q QueueID) Switch() uint16 { return uint16(q >> 16) }

// Queue returns the queue-index portion of the queue ID.
func (q QueueID) Queue() uint16 { return uint16(q) }

// Record is one observation of one packet at one queue. If a packet
// traverses multiple queues, each queue contributes a separate Record with
// the same PktUniq.
type Record struct {
	// Packet headers (the parseable subset used by queries).
	SrcIP      packet.Addr4
	DstIP      packet.Addr4
	SrcPort    uint16
	DstPort    uint16
	Proto      packet.Proto
	PktLen     uint32 // wire length in bytes
	PayloadLen uint32 // transport payload length in bytes
	TCPSeq     uint32
	TCPFlags   uint8

	// PktUniq uniquely identifies the packet end-to-end (the paper leaves
	// its interpretation to operators; the simulator assigns a sequence
	// number at first transmission).
	PktUniq uint64

	// Performance metadata.
	QID      QueueID
	Tin      int64  // enqueue timestamp, ns
	Tout     int64  // dequeue timestamp, ns; Infinity if dropped
	QSizeIn  uint32 // queue length in bytes seen on enqueue (qin)
	QSizeOut uint32 // queue length in bytes seen on dequeue (qout)
	Path     uint32 // opaque path identifier (pkt_path)
}

// Dropped reports whether the packet was dropped at this queue.
func (r *Record) Dropped() bool { return r.Tout == Infinity }

// QueueingDelay returns tout-tin, or Infinity for drops.
func (r *Record) QueueingDelay() int64 {
	if r.Dropped() {
		return Infinity
	}
	return r.Tout - r.Tin
}

// FlowKey returns the record's transport five-tuple.
func (r *Record) FlowKey() packet.FiveTuple {
	return packet.FiveTuple{
		Src: r.SrcIP, Dst: r.DstIP,
		SrcPort: r.SrcPort, DstPort: r.DstPort,
		Proto: r.Proto,
	}
}

// SetHeaders fills the header portion of the record from a decoded packet.
func (r *Record) SetHeaders(p *packet.Packet) {
	ft := p.FlowKey()
	r.SrcIP, r.DstIP = ft.Src, ft.Dst
	r.SrcPort, r.DstPort = ft.SrcPort, ft.DstPort
	r.Proto = ft.Proto
	r.PktLen = uint32(p.WireLen)
	r.PayloadLen = uint32(p.PayloadLen)
	if p.Has(packet.LayerTCP) {
		r.TCPSeq = p.TCP.Seq
		r.TCPFlags = p.TCP.Flags
	} else {
		r.TCPSeq = 0
		r.TCPFlags = 0
	}
}

// Source yields records in time order. Implementations return io.EOF from
// Next after the last record.
type Source interface {
	// Next fills rec with the next record. The *Record contents are owned
	// by the caller after return.
	Next(rec *Record) error
}

// Sink consumes records.
type Sink interface {
	Write(rec *Record) error
}

// SliceSource adapts a []Record to a Source.
type SliceSource struct {
	Records []Record
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next(rec *Record) error {
	if s.pos >= len(s.Records) {
		return io.EOF
	}
	*rec = s.Records[s.pos]
	s.pos++
	return nil
}

// Reset rewinds the source to the first record.
func (s *SliceSource) Reset() { s.pos = 0 }

// Rest returns the unconsumed records and marks the source drained — the
// bulk-replay fast path: consumers that can iterate a slice directly
// skip the per-record copy Next performs. Reset rewinds as usual.
func (s *SliceSource) Rest() []Record {
	rest := s.Records[s.pos:]
	s.pos = len(s.Records)
	return rest
}

// SliceSink collects records into memory.
type SliceSink struct {
	Records []Record
}

// Write implements Sink.
func (s *SliceSink) Write(rec *Record) error {
	s.Records = append(s.Records, *rec)
	return nil
}

// Collect drains src into a slice. It is intended for tests and small
// traces; experiments stream instead.
func Collect(src Source) ([]Record, error) {
	var out []Record
	var rec Record
	for {
		err := src.Next(&rec)
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

// Blocks drains src through fn a run of at most n records at a time — the
// bulk drive loop of every datapath. A SliceSource is handed over in one
// run without copying; any other source is read into a reused n-record
// buffer, so fn must not retain the slice. A source error ends the loop
// after the records read before it were handed over; io.EOF is not an
// error.
func Blocks(src Source, n int, fn func([]Record)) error {
	if ss, ok := src.(*SliceSource); ok {
		if rest := ss.Rest(); len(rest) > 0 {
			fn(rest)
		}
		return nil
	}
	buf := make([]Record, n)
	for {
		k := 0
		var err error
		for ; k < n; k++ {
			if err = src.Next(&buf[k]); err != nil {
				break
			}
		}
		if k > 0 {
			fn(buf[:k])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
