package jobq

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// built returns a build that yields payload.
func built(payload any) func() (any, error) {
	return func() (any, error) { return payload, nil }
}

func TestSessionRegistryCaps(t *testing.T) {
	r := NewSessionRegistry(SessionConfig{MaxSessions: 3, PerTenant: 2}, nil)

	a1, err := r.Open("a", built(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("a", built(2)); err != nil {
		t.Fatal(err)
	}
	// Tenant cap.
	if _, err := r.Open("a", built(3)); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("per-tenant overflow: err = %v, want ErrSessionLimit", err)
	}
	if _, err := r.Open("b", built(4)); err != nil {
		t.Fatal(err)
	}
	// Global cap.
	if _, err := r.Open("c", built(5)); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("global overflow: err = %v, want ErrSessionLimit", err)
	}
	// Closing frees both caps.
	if err := r.Close(a1.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("c", built(6)); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if got := r.Active(); got != 3 {
		t.Fatalf("Active = %d, want 3", got)
	}
	if got := r.ActiveFor("a"); got != 1 {
		t.Fatalf("ActiveFor(a) = %d, want 1", got)
	}
}

func TestSessionRegistryLifecycle(t *testing.T) {
	var closed atomic.Int32
	r := NewSessionRegistry(SessionConfig{}, func(p any) { closed.Add(1) })
	s, err := r.Open("t", built("payload"))
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := s.Do(func(p any) error { got = p; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("payload = %v", got)
	}
	if _, err := r.Get(s.ID()); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(s.ID()); err != nil {
		t.Fatal(err)
	}
	if closed.Load() != 1 {
		t.Fatalf("onClose ran %d times, want 1", closed.Load())
	}
	if _, err := r.Get(s.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("Get after close: err = %v, want ErrSessionNotFound", err)
	}
	if err := r.Close(s.ID()); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("double close: err = %v, want ErrSessionNotFound", err)
	}
	// Do on a torn-down handle fails cleanly.
	if err := s.Do(func(any) error { return nil }); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("Do after close: err = %v, want ErrSessionNotFound", err)
	}
}

func TestSessionDoSerializes(t *testing.T) {
	r := NewSessionRegistry(SessionConfig{}, nil)
	s, err := r.Open("t", built(nil))
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, maxInFlight atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Do(func(any) error {
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if maxInFlight.Load() != 1 {
		t.Fatalf("Do overlapped: max in flight = %d", maxInFlight.Load())
	}
}

func TestSessionCloseAllDrains(t *testing.T) {
	var closed atomic.Int32
	r := NewSessionRegistry(SessionConfig{MaxSessions: 8}, func(any) { closed.Add(1) })
	s1, _ := r.Open("a", built(nil))
	_, _ = r.Open("b", built(nil))

	// Hold a batch in flight; CloseAll must wait for it.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = s1.Do(func(any) error {
			close(started)
			<-release
			return nil
		})
		close(done)
	}()
	<-started
	closeDone := make(chan struct{})
	go func() {
		if err := r.CloseAll(context.Background()); err != nil {
			t.Errorf("CloseAll with no open building: %v", err)
		}
		close(closeDone)
	}()

	// CloseAll unregisters every session before waiting out the drain;
	// once the index is empty, admission must already be stopped.
	for r.Active() != 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Open("c", built(nil)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("open during shutdown: err = %v, want ErrShuttingDown", err)
	}
	select {
	case <-closeDone:
		t.Fatal("CloseAll returned while a batch was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done
	<-closeDone
	if closed.Load() != 2 {
		t.Fatalf("onClose ran %d times, want 2", closed.Load())
	}
	if r.Active() != 0 {
		t.Fatalf("Active = %d after CloseAll", r.Active())
	}
}

// TestSessionOpenBuild checks the slot an open takes before its build:
// a failing or panicking build frees it, a build still running holds it
// against both caps without running the other opens' builds, CloseAll
// waits for that build until its context is done, and a payload built
// after CloseAll began is released through onClose.
func TestSessionOpenBuild(t *testing.T) {
	var released []any
	r := NewSessionRegistry(SessionConfig{MaxSessions: 1, PerTenant: 1}, func(p any) { released = append(released, p) })

	boom := errors.New("boom")
	if _, err := r.Open("a", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("failing build: err = %v, want its error", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a build's panic did not reach Open's caller")
			}
		}()
		_, _ = r.Open("a", func() (any, error) { panic("build") })
	}()
	if got := r.ActiveFor("a"); got != 0 {
		t.Fatalf("ActiveFor(a) = %d after a failed and a panicked build, want 0", got)
	}

	building, finish := make(chan struct{}), make(chan struct{})
	opened := make(chan error, 1)
	go func() {
		_, err := r.Open("a", func() (any, error) {
			close(building)
			<-finish
			return "late", nil
		})
		opened <- err
	}()
	<-building
	for _, tenant := range []string{"a", "b"} {
		_, err := r.Open(tenant, func() (any, error) {
			t.Errorf("open by %s beside a running build ran its build", tenant)
			return nil, nil
		})
		if !errors.Is(err, ErrSessionLimit) {
			t.Fatalf("open by %s beside a running build: err = %v, want ErrSessionLimit", tenant, err)
		}
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.CloseAll(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("CloseAll beside a running build, context done: err = %v, want its error", err)
	}
	close(finish)
	if err := <-opened; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("build finished after CloseAll: err = %v, want ErrShuttingDown", err)
	}
	if err := r.CloseAll(context.Background()); err != nil {
		t.Fatalf("CloseAll after the build returned: %v", err)
	}
	if len(released) != 1 || released[0] != "late" {
		t.Fatalf("onClose got %v, want the late payload", released)
	}
	if r.Active() != 0 || r.ActiveFor("a") != 0 {
		t.Fatalf("Active = %d, ActiveFor(a) = %d after CloseAll, want 0 and 0", r.Active(), r.ActiveFor("a"))
	}
}
