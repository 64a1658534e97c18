// blobs.go is the trace-blob tier: uploaded trace files spilled to disk
// under their canonical content hash (ingest.Reader.Sum), the input-side
// counterpart of the result store. The same discipline applies — temp
// file + rename so readers only ever see complete blobs, and crashed
// writers leave only temp files the next Open sweeps away. Blobs keep
// whatever encoding they arrived in (text or binary); the canonical hash
// is encoding-independent, so either serialization of a trace lands on
// the same key.
package store

import (
	"fmt"
	"io"
	"os"
)

const blobSuffix = ".trace"

// Blobs is a disk-backed content-addressed blob store for uploaded
// traces. Safe for concurrent use within one process; cross-process
// safety comes from the atomic rename.
type Blobs struct {
	index
}

// OpenBlobs creates (if needed) and scans dir, sweeping leftover temp
// files from crashed writers.
func OpenBlobs(dir string) (*Blobs, error) {
	b := &Blobs{}
	if err := b.open(dir, blobSuffix); err != nil {
		return nil, err
	}
	return b, nil
}

// Open returns a reader over a stored blob.
func (b *Blobs) Open(hash string) (io.ReadCloser, error) {
	if !validHash(hash) || !b.Has(hash) {
		return nil, ErrNotFound
	}
	f, err := os.Open(b.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			b.forget(hash)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

// Create starts a streaming blob write. The caller streams the upload
// through the writer (typically via io.TeeReader while parsing), then
// either Commits it under its computed hash or Aborts.
func (b *Blobs) Create() (*BlobWriter, error) {
	f, err := os.CreateTemp(b.dir, tmpPattern)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &BlobWriter{b: b, f: f, name: f.Name()}, nil
}

// BlobWriter is an in-progress blob upload: an io.Writer over a temp
// file that becomes a named blob on Commit.
type BlobWriter struct {
	b    *Blobs
	f    *os.File
	name string
	n    int64
}

// Write implements io.Writer.
func (w *BlobWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// Bytes returns how many bytes have been written so far.
func (w *BlobWriter) Bytes() int64 { return w.n }

// Commit publishes the blob under hash (atomic rename). The writer is
// unusable afterwards.
func (w *BlobWriter) Commit(hash string) error {
	if !validHash(hash) {
		w.Abort()
		return fmt.Errorf("store: invalid blob hash %q", hash)
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.name)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(w.name, w.b.path(hash)); err != nil {
		_ = os.Remove(w.name)
		return fmt.Errorf("store: %w", err)
	}
	w.b.add(hash)
	return nil
}

// Abort discards the in-progress blob.
func (w *BlobWriter) Abort() {
	_ = w.f.Close()
	_ = os.Remove(w.name)
}
