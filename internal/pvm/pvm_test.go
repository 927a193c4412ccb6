package pvm

import (
	"testing"
	"time"
)

func TestSendRecvRoundTrip(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, err := m.Register()
	if err != nil {
		t.Fatal(err)
	}
	echoTID, err := m.Spawn(func(t *Task) {
		msg, err := t.Recv(AnySource, AnyTag)
		if err != nil {
			return
		}
		_ = t.Send(msg.Src, msg.Tag+1, msg.Body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Send(echoTID, 5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msg, err := master.Recv(echoTID, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Body) != "hello" || msg.Src != echoTID {
		t.Fatalf("echo wrong: %+v", msg)
	}
}

func TestRecvFiltersByTag(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, _ := m.Register()
	other, _ := m.Register()
	// Deliver tag 1 then tag 2; a Recv for tag 2 must skip tag 1,
	// which stays available for a later Recv.
	if err := other.Send(master.tid, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := other.Send(master.tid, 2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	msg, err := master.Recv(AnySource, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Body) != "second" {
		t.Fatalf("tag filter failed: %q", msg.Body)
	}
	msg, err = master.Recv(AnySource, AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Body) != "first" {
		t.Fatalf("pending message lost: %q", msg.Body)
	}
}

func TestRecvFiltersBySource(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, _ := m.Register()
	a, _ := m.Register()
	b, _ := m.Register()
	_ = a.Send(master.tid, 1, []byte("from-a"))
	_ = b.Send(master.tid, 1, []byte("from-b"))
	msg, err := master.Recv(b.tid, AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Body) != "from-b" {
		t.Fatalf("source filter failed: %q", msg.Body)
	}
}

func TestSendToUnknownTask(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, _ := m.Register()
	if err := master.Send(999, 1, nil); err == nil {
		t.Fatal("send to unknown task succeeded")
	}
}

func TestHaltUnblocksRecv(t *testing.T) {
	m := NewMachine()
	master, _ := m.Register()
	done := make(chan error, 1)
	go func() {
		_, err := master.Recv(AnySource, AnyTag)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Halt()
	select {
	case err := <-done:
		if err != ErrHalted {
			t.Fatalf("err = %v, want ErrHalted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on halt")
	}
}

func TestHaltIdempotentAndBlocksNewTasks(t *testing.T) {
	m := NewMachine()
	m.Halt()
	m.Halt() // must not panic
	if _, err := m.Register(); err != ErrHalted {
		t.Fatalf("Register after halt: %v", err)
	}
	if _, err := m.Spawn(func(*Task) {}); err != ErrHalted {
		t.Fatalf("Spawn after halt: %v", err)
	}
}

func TestMessageBodyIsCopied(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, _ := m.Register()
	other, _ := m.Register()
	body := []byte("abc")
	_ = other.Send(master.tid, 1, body)
	body[0] = 'X' // mutate after send
	msg, err := master.Recv(AnySource, AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Body) != "abc" {
		t.Fatalf("message body aliased sender's slice: %q", msg.Body)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	m := NewMachine(WithLatency(50 * time.Millisecond))
	defer m.Halt()
	master, _ := m.Register()
	other, _ := m.Register()
	start := time.Now()
	if err := other.Send(master.tid, 1, nil); err != nil {
		t.Fatal(err)
	}
	if sendTime := time.Since(start); sendTime > 20*time.Millisecond {
		t.Fatalf("send blocked for %v; must be asynchronous", sendTime)
	}
	if _, err := master.Recv(AnySource, AnyTag); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("message arrived after %v, want >= ~50ms", elapsed)
	}
}

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer().
		PackInt(-42).
		PackFloat64(3.25).
		PackInts([]int{7, 11, 14}).
		PackString("clump")
	if b.Err() != nil {
		t.Fatal(b.Err())
	}
	u := FromBytes(b.Bytes())
	if got := u.UnpackInt(); got != -42 {
		t.Fatalf("int = %d", got)
	}
	if got := u.UnpackFloat64(); got != 3.25 {
		t.Fatalf("float = %v", got)
	}
	ints := u.UnpackInts()
	if len(ints) != 3 || ints[0] != 7 || ints[2] != 14 {
		t.Fatalf("ints = %v", ints)
	}
	if got := u.UnpackString(); got != "clump" {
		t.Fatalf("string = %q", got)
	}
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
}

func TestBufferUnderflow(t *testing.T) {
	u := FromBytes([]byte{1, 2})
	_ = u.UnpackInt()
	if u.Err() == nil {
		t.Fatal("underflow not detected")
	}
	// Subsequent unpacks keep failing without panicking.
	_ = u.UnpackFloat64()
	_ = u.UnpackInts()
	_ = u.UnpackString()
	if u.Err() == nil {
		t.Fatal("error cleared unexpectedly")
	}
}

func TestBufferCorruptSliceLength(t *testing.T) {
	b := NewBuffer().PackInt(1 << 40) // absurd length
	u := FromBytes(b.Bytes())
	if got := u.UnpackInts(); got != nil || u.Err() == nil {
		t.Fatal("corrupt slice length accepted")
	}
}

func TestBufferCorruptStringLength(t *testing.T) {
	b := NewBuffer().PackInt(1000) // length longer than payload
	u := FromBytes(b.Bytes())
	if got := u.UnpackString(); got != "" || u.Err() == nil {
		t.Fatal("corrupt string length accepted")
	}
}

func TestManyTasksPingPong(t *testing.T) {
	m := NewMachine()
	defer m.Halt()
	master, _ := m.Register()
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := m.Spawn(func(t *Task) {
			for {
				msg, err := t.Recv(AnySource, AnyTag)
				if err != nil {
					return
				}
				if msg.Tag == 0 {
					return
				}
				body := FromBytes(msg.Body)
				v := body.UnpackInt()
				_ = t.Send(msg.Src, msg.Tag, NewBuffer().PackInt(v*2).Bytes())
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Fan out one message per slave, sum the doubled replies.
	for i := 0; i < n; i++ {
		if err := master.Send(2+i, 7, NewBuffer().PackInt(i).Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0
	for i := 0; i < n; i++ {
		msg, err := master.Recv(AnySource, 7)
		if err != nil {
			t.Fatal(err)
		}
		sum += FromBytes(msg.Body).UnpackInt()
	}
	want := n * (n - 1) // sum of 2*i for i in [0,n)
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
