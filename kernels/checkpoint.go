package kernels

import (
	"bytes"
	"encoding/gob"
)

// This file makes the library's stateful kernels Checkpointable: under
// raft.WithSupervision / raft.WithCheckpointStore their progress state is
// snapshotted after successful invocations and restored on restart, so a
// recovered kernel resumes exactly where it left off (and, with a
// file-backed store, a re-executed application resumes across processes).
// Stateless kernels (Print, WriteEach, SlidingWindow — whose only state is
// the stream itself) need no checkpoint.

// gobEncode serializes one value with encoding/gob.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobDecode deserializes one value with encoding/gob.
func gobDecode(snap []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(snap)).Decode(v)
}

// Snapshot implements raft.Checkpointable (the next index to generate).
func (g *Generate[T]) Snapshot() ([]byte, error) { return gobEncode(g.next) }

// Restore implements raft.Checkpointable.
func (g *Generate[T]) Restore(snap []byte) error { return gobDecode(snap, &g.next) }

// Snapshot implements raft.Checkpointable (the next source index).
func (r *ReadEach[T]) Snapshot() ([]byte, error) { return gobEncode(int64(r.i)) }

// Restore implements raft.Checkpointable.
func (r *ReadEach[T]) Restore(snap []byte) error {
	var i int64
	if err := gobDecode(snap, &i); err != nil {
		return err
	}
	r.i = int(i)
	return nil
}

// Snapshot implements raft.Checkpointable (the running accumulator; T must
// be gob-encodable).
func (r *Reduce[T]) Snapshot() ([]byte, error) { return gobEncode(&r.acc) }

// Restore implements raft.Checkpointable.
func (r *Reduce[T]) Restore(snap []byte) error { return gobDecode(snap, &r.acc) }
