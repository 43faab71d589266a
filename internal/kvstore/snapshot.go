package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Snapshot persistence: the engine can serialize its full contents to
// a compact binary image and reload it, Redis-RDB style, so partition
// placements survive store restarts. The format is length-prefixed
// throughout and versioned.

const (
	snapshotMagic = "PKVS"
	// Version 2 adds a 16-byte AOF watermark (generation id + byte
	// offset) after the version byte: the mark of the log position this
	// snapshot supersedes, so restart replay skips records the snapshot
	// already contains. Version 1 images (no mark) still load.
	snapshotVersion   = 2
	snapshotVersionV1 = 1
	// Value kind tags.
	kindString byte = 1
	kindList   byte = 2
)

// ErrBadSnapshot reports a corrupt or incompatible snapshot image.
var ErrBadSnapshot = errors.New("kvstore: bad snapshot")

// WriteSnapshotMark serializes every key to w. The engine remains
// usable during the write, but the snapshot is only guaranteed to be a
// consistent point-in-time image per shard (shards are locked one at a
// time, matching Redis's relaxed BGSAVE semantics under concurrent
// writers). mark is the embedded AOF watermark: the (generation,
// offset) position of the command log this snapshot supersedes.
// Engines persisting without an AOF pass the zero mark.
func (e *Engine) WriteSnapshotMark(w io.Writer, mark AOFMark) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	var markBuf [16]byte
	binary.LittleEndian.PutUint64(markBuf[:8], mark.Gen)
	binary.LittleEndian.PutUint64(markBuf[8:], uint64(mark.Off))
	if _, err := bw.Write(markBuf[:]); err != nil {
		return err
	}
	writeBytes := func(b []byte) error {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(b)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, v := range s.strings {
			if err := bw.WriteByte(kindString); err != nil {
				s.mu.RUnlock()
				return err
			}
			if err := writeBytes([]byte(k)); err != nil {
				s.mu.RUnlock()
				return err
			}
			if err := writeBytes(v); err != nil {
				s.mu.RUnlock()
				return err
			}
		}
		for k, list := range s.lists {
			if err := bw.WriteByte(kindList); err != nil {
				s.mu.RUnlock()
				return err
			}
			if err := writeBytes([]byte(k)); err != nil {
				s.mu.RUnlock()
				return err
			}
			var nBuf [4]byte
			binary.LittleEndian.PutUint32(nBuf[:], uint32(len(list)))
			if _, err := bw.Write(nBuf[:]); err != nil {
				s.mu.RUnlock()
				return err
			}
			for _, el := range list {
				if err := writeBytes(el); err != nil {
					s.mu.RUnlock()
					return err
				}
			}
		}
		s.mu.RUnlock()
	}
	return bw.Flush()
}

// ReadSnapshotMark replaces the engine's contents with the image from
// r and returns the AOF watermark the image carries (the zero mark for
// version-1 images and for snapshots written without an AOF).
func (e *Engine) ReadSnapshotMark(r io.Reader) (AOFMark, error) {
	var mark AOFMark
	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return mark, fmt.Errorf("%w: short magic: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return mark, fmt.Errorf("%w: magic %q", ErrBadSnapshot, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return mark, fmt.Errorf("%w: missing version", ErrBadSnapshot)
	}
	switch ver {
	case snapshotVersionV1:
		// No watermark field: the zero mark (replay the whole log).
	case snapshotVersion:
		var markBuf [16]byte
		if _, err := io.ReadFull(br, markBuf[:]); err != nil {
			return mark, fmt.Errorf("%w: truncated aof mark: %v", ErrBadSnapshot, err)
		}
		mark.Gen = binary.LittleEndian.Uint64(markBuf[:8])
		mark.Off = int64(binary.LittleEndian.Uint64(markBuf[8:]))
	default:
		return mark, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, ver)
	}
	readBytes := func() ([]byte, error) {
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxBulkLen {
			return nil, fmt.Errorf("%w: value of %d bytes", ErrBadSnapshot, n)
		}
		return readFullN(br, int(n))
	}
	e.Flush()
	for {
		kind, err := br.ReadByte()
		if errors.Is(err, io.EOF) {
			return mark, nil
		}
		if err != nil {
			return mark, err
		}
		key, err := readBytes()
		if err != nil {
			return mark, fmt.Errorf("%w: truncated key: %v", ErrBadSnapshot, err)
		}
		switch kind {
		case kindString:
			val, err := readBytes()
			if err != nil {
				return mark, fmt.Errorf("%w: truncated value: %v", ErrBadSnapshot, err)
			}
			if rep := e.Do("SET", key, val); rep.Type == ErrorReply {
				return mark, fmt.Errorf("%w: %s", ErrBadSnapshot, rep.Str)
			}
		case kindList:
			var nBuf [4]byte
			if _, err := io.ReadFull(br, nBuf[:]); err != nil {
				return mark, fmt.Errorf("%w: truncated list header: %v", ErrBadSnapshot, err)
			}
			n := binary.LittleEndian.Uint32(nBuf[:])
			if n > maxArrayLen {
				return mark, fmt.Errorf("%w: list of %d elements", ErrBadSnapshot, n)
			}
			for j := uint32(0); j < n; j++ {
				el, err := readBytes()
				if err != nil {
					return mark, fmt.Errorf("%w: truncated list element: %v", ErrBadSnapshot, err)
				}
				if rep := e.Do("RPUSH", key, el); rep.Type == ErrorReply {
					return mark, fmt.Errorf("%w: %s", ErrBadSnapshot, rep.Str)
				}
			}
		default:
			return mark, fmt.Errorf("%w: unknown kind %d", ErrBadSnapshot, kind)
		}
	}
}

// SaveSnapshotFileMark atomically writes the snapshot, with its
// embedded AOF watermark, to path (write-to-temp + fsync + rename +
// directory fsync). The image is fsynced before the rename and the
// directory after it: callers truncate the AOF the moment this
// returns, so the rename must never become durable ahead of the bytes
// it points at — otherwise a power cut could leave an empty log and a
// missing snapshot.
func (e *Engine) SaveSnapshotFileMark(path string, mark AOFMark) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".pkvs-*")
	if err != nil {
		return fmt.Errorf("kvstore: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := e.WriteSnapshotMark(tmp, mark); err != nil {
		tmp.Close()
		return fmt.Errorf("kvstore: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kvstore: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kvstore: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("kvstore: snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry inside it is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("kvstore: snapshot dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("kvstore: snapshot dir sync: %w", err)
	}
	return nil
}

// LoadSnapshotFileMark loads a snapshot from path and returns the AOF
// watermark the image carries, for the caller to hand to
// ReplayAOFSince; a missing file leaves the engine empty and returns
// os.ErrNotExist.
func (e *Engine) LoadSnapshotFileMark(path string) (AOFMark, error) {
	f, err := os.Open(path)
	if err != nil {
		return AOFMark{}, err
	}
	defer f.Close()
	return e.ReadSnapshotMark(f)
}
