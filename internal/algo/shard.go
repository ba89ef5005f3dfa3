package algo

import (
	"encoding/binary"
	"fmt"
)

// Sharded aggregation: at 10k+ sampled clients per round, a single
// sequential collect pass is the serial bottleneck of a federation — every
// upload must be decoded and validated before it folds. The shard layer
// partitions the selection into contiguous shards, lets each shard pool
// its uploads independently (edge aggregators over TCP, concurrent
// collectors in-process) into one ShardBuffer payload, and delivers each
// pooled payload to the round engine (Round.Shard), which hands its
// entries to the aggregator in one CollectBatch.
//
// Determinism contract: CollectBatch parallelizes only the per-upload
// decode — order-independent work — and then ingests in upload order,
// so it performs exactly the folds sequential Collect calls would. The
// stream engine's cursor fixes the fold order at ascending client ID
// whatever order the shards arrive in, so the sharded reduce is bitwise
// identical to the flat collect at any shard count and any GOMAXPROCS.

// Upload is one client's round contribution as a transport delivered it:
// the identity and data weight from the hello handshake plus the opaque
// algorithm payload.
type Upload struct {
	Client    uint32
	TrainSize int
	Payload   []byte
}

// ShardRange returns the half-open range [lo, hi) of selection positions
// owned by shard s when total positions are split into numShards
// contiguous, balanced shards. Every position belongs to exactly one
// shard and shard order preserves selection order.
func ShardRange(s, total, numShards int) (lo, hi int) {
	return s * total / numShards, (s + 1) * total / numShards
}

// ShardOf returns the shard owning selection position pos (0 ≤ pos <
// total) under the ShardRange partition. When numShards > total some
// shards are empty; ShardOf always lands on the non-empty owner.
func ShardOf(pos, total, numShards int) int {
	s := pos * numShards / total // floor-error off by at most a step
	for {
		lo, hi := ShardRange(s, total, numShards)
		switch {
		case pos < lo:
			s--
		case pos >= hi:
			s++
		default:
			return s
		}
	}
}

// shardEntryHeader is the per-entry wire overhead inside a pooled shard
// payload: client ID, train size and payload length, little-endian.
const shardEntryHeader = 4 + 4 + 4

// ShardBuffer accumulates one shard's validated uploads in arrival order,
// building the pooled wire payload incrementally — the same bytes an edge
// aggregator forwards upstream. One goroutine owns a buffer at a time;
// distinct shards may be filled concurrently.
type ShardBuffer struct {
	buf []byte
	n   int
}

// Add appends one client's upload to the shard (the payload is copied, so
// transport buffers may be recycled immediately).
func (s *ShardBuffer) Add(client uint32, trainSize int, payload []byte) {
	var h [shardEntryHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], client)
	binary.LittleEndian.PutUint32(h[4:8], uint32(trainSize))
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(payload)))
	s.buf = append(s.buf, h[:]...)
	s.buf = append(s.buf, payload...)
	s.n++
}

// Len reports how many uploads the shard holds.
func (s *ShardBuffer) Len() int { return s.n }

// Payload returns the pooled shard payload — the concatenated entries in
// arrival order, ready to forward upstream. The slice aliases the
// buffer; it is valid until the next Add or Reset.
func (s *ShardBuffer) Payload() []byte { return s.buf }

// Reset clears the shard for the next round, keeping the backing buffer.
func (s *ShardBuffer) Reset() {
	s.buf = s.buf[:0]
	s.n = 0
}

// ShardEntries decodes a pooled shard payload into an Upload slice
// (payloads alias buf), appending to dst. A malformed payload stops the
// walk with an error; entries already decoded stand.
func ShardEntries(dst []Upload, buf []byte) ([]Upload, error) {
	for len(buf) > 0 {
		if len(buf) < shardEntryHeader {
			return dst, fmt.Errorf("algo: truncated shard entry header (%d bytes)", len(buf))
		}
		client := binary.LittleEndian.Uint32(buf[0:4])
		trainSize := binary.LittleEndian.Uint32(buf[4:8])
		n := binary.LittleEndian.Uint32(buf[8:12])
		buf = buf[shardEntryHeader:]
		if int(n) > len(buf) {
			return dst, fmt.Errorf("algo: shard entry length %d exceeds remaining %d", n, len(buf))
		}
		dst = append(dst, Upload{Client: client, TrainSize: int(trainSize), Payload: buf[:n]})
		buf = buf[n:]
	}
	return dst, nil
}

// BatchCollector is Aggregator's CollectBatch on its own. It remains for
// code written against it (the perfbench module), as StreamingAggregator
// does.
type BatchCollector interface{ CollectBatch(round int, ups []Upload) }
