package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// allEvents is one of every journal event, the shape each constructor
// pins down.
func allEvents() []Event {
	return []Event{
		RoundStart(0, 3, 128),
		ClientUpload(0, 0, 64, 1500),
		ClientTrain(0, 1, 2500),
		Straggler(0, 1),
		Drop(0, 2),
		Aggregate(0, 1, 900),
		Eval(0, 0.8125),
		ClientApply(0, 0, 64),
		ShardPush(0, 1, 2, 256),
		ShardDrop(0, 1, 2),
		Quorum(0, 2),
		LateUpload(0, 2, 64),
		MaskAgreement(0, 48, 197),
		RoundEnd(0, 64, 384),
	}
}

// TestJournalGoldenRoundTrip emits one of every event with zeroed
// timestamps, checks the bytes against the committed golden file, and
// decodes every emitted line back into an identical Event — the wire
// schema contract.
func TestJournalGoldenRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetZeroTime(true)
	events := allEvents()
	for _, e := range events {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal bytes diverged from golden:\ngot:\n%swant:\n%s", buf.Bytes(), want)
	}

	// Round-trip: every line must decode to the event that produced it.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	i := 0
	for sc.Scan() {
		var got Event
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d does not decode: %v", i, err)
		}
		if i >= len(events) {
			t.Fatalf("more lines than events emitted")
		}
		want := events[i]
		want.TS, want.Dur = 0, 0 // zero-time mode normalizes both on emit
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got, want)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(events) {
		t.Fatalf("decoded %d lines, emitted %d", i, len(events))
	}
	if j.Events() != int64(len(events)) {
		t.Fatalf("event counter %d, want %d", j.Events(), len(events))
	}
}

// TestJournalZeroTime: zero-time mode must clear timestamps AND
// durations, and two emissions of the same sequence must be
// byte-identical.
func TestJournalZeroTime(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		j := NewJournal(&buf)
		j.SetZeroTime(true)
		j.Emit(ClientUpload(2, 1, 64, 123456))
		j.Emit(RoundEnd(2, 64, 64))
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("zero-time journals differ:\n%s\nvs\n%s", a, b)
	}
	var e Event
	if err := json.Unmarshal(bytes.Split(a, []byte("\n"))[0], &e); err != nil {
		t.Fatal(err)
	}
	if e.TS != 0 || e.Dur != 0 {
		t.Fatalf("zero-time left ts=%d dur=%d", e.TS, e.Dur)
	}
}

// TestJournalTimestamps: outside zero-time mode, emitted events carry
// a wall-clock timestamp.
func TestJournalTimestamps(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Emit(RoundStart(0, 1, 8))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal(buf.Bytes()[:len(buf.Bytes())-1], &e); err != nil {
		t.Fatal(err)
	}
	if e.TS == 0 {
		t.Fatal("expected a nonzero timestamp")
	}
}

// errWriter fails after n bytes, to exercise sticky errors.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, os.ErrClosed
	}
	w.left -= len(p)
	return len(p), nil
}

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(&errWriter{left: 10})
	for i := 0; i < 2000; i++ {
		j.Emit(RoundEnd(i, 0, 0)) // round_end forces a flush
	}
	if j.Err() == nil {
		t.Fatal("expected a sticky write error")
	}
}

// TestAppendEventMatchesEncodingJSON: the journal's hand-written encoder
// is byte-identical to encoding/json's Encoder for every event shape,
// extreme integers, float accuracies in and out of 'e' notation, and
// names that need escaping.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	events := allEvents()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		e := Event{
			TS: rng.Int63() - rng.Int63(), Ev: EvClientUpload, Round: rng.Int(), Client: -rng.Intn(3),
			Bytes: rng.Int63(), Up: math.MaxInt64, Down: math.MinInt64, Dur: rng.Int63n(1e9), N: -rng.Int(),
			Acc: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)),
		}
		events = append(events, e)
	}
	for _, acc := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.99e20, 1e-7, -1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2} {
		events = append(events, Eval(1, acc))
	}
	for _, name := range []string{"", "quo\"te", "back\\slash", "<html>&", "tab\t", "é", "\u2028", "bad\xff"} {
		events = append(events, Event{Ev: name})
	}
	for _, e := range events {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&e); err != nil {
			t.Fatal(err)
		}
		got, err := appendEvent(nil, &e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %+v:\n got %s\nwant %s", e, got, want.Bytes())
		}
	}
	for _, acc := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendEvent(nil, &Event{Acc: acc}); err == nil {
			t.Fatalf("acc %v encoded without error", acc)
		}
	}
}
