// Package pvm is a miniature, in-process simulation of the Parallel
// Virtual Machine (PVM 3) programming model the paper's original
// implementation used: tasks with integer ids exchanging tagged,
// packed messages. Tasks map to goroutines and message queues to
// channels, with optional injected per-message latency so experiments
// can emulate a 2004-era cluster interconnect.
//
// Only the parts of PVM the paper's master/slave evaluator needs are
// provided: spawn, send/recv with source and tag filtering, pack/
// unpack buffers, and halt.
package pvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrHalted is returned by blocking operations after Machine.Halt.
var ErrHalted = errors.New("pvm: machine halted")

// AnySource and AnyTag are wildcard filters for Recv, mirroring PVM's
// -1 conventions.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message is one tagged, packed message between tasks.
type Message struct {
	Src, Dst int
	Tag      int
	Body     []byte
}

// Machine is a simulated PVM virtual machine.
type Machine struct {
	mu      sync.Mutex
	nextTID int
	tasks   map[int]*Task
	halted  bool
	latency time.Duration
	wg      sync.WaitGroup
}

// DefaultMessageLatency is the one-way message delivery delay that
// emulates the original experiment's communication fabric (PVM 3 over
// 2004-era switched Ethernet, where a small message cost on the order
// of a couple hundred microseconds). Machines are created with zero
// latency; backends that want paper-faithful communication cost pass
// WithLatency(DefaultMessageLatency) explicitly.
const DefaultMessageLatency = 200 * time.Microsecond

// Option configures a Machine.
type Option func(*Machine)

// WithLatency injects a fixed delivery delay per message, emulating
// network transit time.
func WithLatency(d time.Duration) Option {
	return func(m *Machine) { m.latency = d }
}

// NewMachine creates an empty virtual machine.
func NewMachine(opts ...Option) *Machine {
	m := &Machine{tasks: make(map[int]*Task), nextTID: 1}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Task is one PVM task. The zero value is invalid; obtain tasks from
// Register or Spawn.
type Task struct {
	tid     int
	m       *Machine
	inbox   chan Message
	pending []Message // messages received but not yet matched
	halt    chan struct{}
}

func (m *Machine) newTask() *Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.halted {
		return nil
	}
	t := &Task{
		tid:   m.nextTID,
		m:     m,
		inbox: make(chan Message, 1024),
		halt:  make(chan struct{}),
	}
	m.nextTID++
	m.tasks[t.tid] = t
	return t
}

// Register creates a task driven by the caller's own goroutine
// (typically the master).
func (m *Machine) Register() (*Task, error) {
	t := m.newTask()
	if t == nil {
		return nil, ErrHalted
	}
	return t, nil
}

// Spawn starts fn as a new task in its own goroutine, returning its
// task id (like pvm_spawn).
func (m *Machine) Spawn(fn func(t *Task)) (int, error) {
	t := m.newTask()
	if t == nil {
		return 0, ErrHalted
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		fn(t)
	}()
	return t.tid, nil
}

// Halt stops the machine: all blocked Recv calls return ErrHalted and
// spawned tasks are awaited.
func (m *Machine) Halt() {
	m.mu.Lock()
	if m.halted {
		m.mu.Unlock()
		return
	}
	m.halted = true
	tasks := make([]*Task, 0, len(m.tasks))
	for _, t := range m.tasks {
		tasks = append(tasks, t)
	}
	m.mu.Unlock()
	for _, t := range tasks {
		close(t.halt)
	}
	m.wg.Wait()
}

// Send delivers a packed message to the task dst (like pvm_send). It
// never blocks on the receiver; with latency configured, delivery is
// deferred without blocking the sender.
func (t *Task) Send(dst, tag int, body []byte) error {
	t.m.mu.Lock()
	if t.m.halted {
		t.m.mu.Unlock()
		return ErrHalted
	}
	target, ok := t.m.tasks[dst]
	latency := t.m.latency
	t.m.mu.Unlock()
	if !ok {
		return fmt.Errorf("pvm: send to unknown task %d", dst)
	}
	msg := Message{Src: t.tid, Dst: dst, Tag: tag, Body: append([]byte(nil), body...)}
	deliver := func() {
		select {
		case target.inbox <- msg:
		case <-target.halt:
		}
	}
	if latency > 0 {
		t.m.wg.Add(1)
		time.AfterFunc(latency, func() {
			defer t.m.wg.Done()
			deliver()
		})
		return nil
	}
	deliver()
	return nil
}

// matches applies PVM's source/tag filter semantics.
func matches(msg Message, src, tag int) bool {
	return (src == AnySource || msg.Src == src) && (tag == AnyTag || msg.Tag == tag)
}

// Recv blocks until a message matching the source and tag filters
// (AnySource / AnyTag wildcards) arrives, like pvm_recv. Non-matching
// messages are buffered and stay available for later calls.
func (t *Task) Recv(src, tag int) (Message, error) {
	for i, msg := range t.pending {
		if matches(msg, src, tag) {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return msg, nil
		}
	}
	for {
		select {
		case msg := <-t.inbox:
			if matches(msg, src, tag) {
				return msg, nil
			}
			t.pending = append(t.pending, msg)
		case <-t.halt:
			// Drain anything already delivered before reporting halt.
			for {
				select {
				case msg := <-t.inbox:
					if matches(msg, src, tag) {
						return msg, nil
					}
					t.pending = append(t.pending, msg)
				default:
					return Message{}, ErrHalted
				}
			}
		}
	}
}

// Buffer packs and unpacks typed values in order, standing in for
// pvm_pk*/pvm_upk*. Pack and unpack sequences must match exactly.
type Buffer struct {
	data []byte
	err  error
}

// NewBuffer returns an empty pack buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// FromBytes wraps a received body for unpacking.
func FromBytes(b []byte) *Buffer { return &Buffer{data: b} }

// Bytes returns the packed bytes.
func (b *Buffer) Bytes() []byte { return b.data }

// Err returns the first pack/unpack error.
func (b *Buffer) Err() error { return b.err }

// PackInt appends a signed 64-bit integer.
func (b *Buffer) PackInt(v int) *Buffer {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(int64(v)))
	b.data = append(b.data, tmp[:]...)
	return b
}

// UnpackInt reads the next integer.
func (b *Buffer) UnpackInt() int {
	if b.err != nil {
		return 0
	}
	if len(b.data) < 8 {
		b.err = errors.New("pvm: unpack past end of buffer")
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(b.data[:8]))
	b.data = b.data[8:]
	return int(v)
}

// PackFloat64 appends a float64.
func (b *Buffer) PackFloat64(v float64) *Buffer {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.data = append(b.data, tmp[:]...)
	return b
}

// UnpackFloat64 reads the next float64.
func (b *Buffer) UnpackFloat64() float64 {
	if b.err != nil {
		return 0
	}
	if len(b.data) < 8 {
		b.err = errors.New("pvm: unpack past end of buffer")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.data[:8]))
	b.data = b.data[8:]
	return v
}

// PackInts appends a length-prefixed integer slice.
func (b *Buffer) PackInts(vs []int) *Buffer {
	b.PackInt(len(vs))
	for _, v := range vs {
		b.PackInt(v)
	}
	return b
}

// UnpackInts reads a length-prefixed integer slice.
func (b *Buffer) UnpackInts() []int {
	n := b.UnpackInt()
	if b.err != nil || n < 0 || n > len(b.data)/8 {
		if b.err == nil {
			b.err = errors.New("pvm: corrupt slice length")
		}
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = b.UnpackInt()
	}
	return out
}

// PackString appends a length-prefixed string.
func (b *Buffer) PackString(s string) *Buffer {
	b.PackInt(len(s))
	b.data = append(b.data, s...)
	return b
}

// UnpackString reads a length-prefixed string.
func (b *Buffer) UnpackString() string {
	n := b.UnpackInt()
	if b.err != nil {
		return ""
	}
	if n < 0 || n > len(b.data) {
		b.err = errors.New("pvm: corrupt string length")
		return ""
	}
	s := string(b.data[:n])
	b.data = b.data[n:]
	return s
}
