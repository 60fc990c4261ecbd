package trace

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sfccube/internal/machine"
)

// manyMessages builds a message list large enough that the event loop is
// guaranteed to hit a cancellation poll (the loop polls every 4096 events;
// each message schedules three).
func manyMessages(n int) []machine.Message {
	msgs := make([]machine.Message, n)
	for i := range msgs {
		msgs[i] = machine.Message{From: i % 2, To: 2 + i%2, Bytes: 100}
	}
	return msgs
}

func TestSimulateCtxBackgroundMatchesSimulate(t *testing.T) {
	mod := simpleModel()
	compute := []float64{1, 2, 3, 4}
	msgs := manyMessages(5000)

	plain, err := Simulate(compute, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SimulateCtx(context.Background(), compute, msgs, mod)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCtx) {
		t.Error("SimulateCtx with background context differs from Simulate")
	}
}

func TestSimulateCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateCtx(ctx, []float64{1, 2, 3, 4}, manyMessages(5000), simpleModel())
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}
