package trace

import (
	"context"
	"reflect"
	"testing"

	"sfccube/internal/machine"
	"sfccube/internal/obs"
)

// TestSimulateObsMetersAndDoesNotPerturb: an instrumented simulation must
// return the exact Result of the uninstrumented one and meter run/event/
// message counts plus the queue-depth high-water mark.
func TestSimulateObsMetersAndDoesNotPerturb(t *testing.T) {
	mod := simpleModel()
	compute := []float64{1, 2, 3, 4}
	msgs := []machine.Message{
		{From: 0, To: 1, Bytes: 1024}, {From: 1, To: 2, Bytes: 2048},
		{From: 2, To: 3, Bytes: 512}, {From: 3, To: 0, Bytes: 4096},
	}
	plain, err := Simulate(compute, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	metered, err := SimulateObs(context.Background(), compute, msgs, mod, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, metered) {
		t.Fatalf("instrumentation changed the result:\nplain:   %+v\nmetered: %+v", plain, metered)
	}
	if plain.MaxQueueDepth <= 0 || plain.Events <= 0 {
		t.Fatalf("missing queue/event accounting: %+v", plain)
	}
	if got := reg.Counter("trace_sim_runs_total").Value(); got != 1 {
		t.Errorf("runs_total = %d, want 1", got)
	}
	if got := reg.Counter("trace_sim_events_total").Value(); got != metered.Events {
		t.Errorf("events_total = %d, want %d", got, metered.Events)
	}
	if got := reg.Counter("trace_sim_messages_total").Value(); got != int64(len(msgs)) {
		t.Errorf("messages_total = %d, want %d", got, len(msgs))
	}
	h := reg.Histogram("trace_sim_queue_depth")
	if h.Count() == 0 {
		t.Error("no queue-depth samples recorded")
	}
	if h.Sum() < int64(metered.MaxQueueDepth) {
		t.Errorf("depth samples sum %d below high-water mark %d", h.Sum(), metered.MaxQueueDepth)
	}
}
