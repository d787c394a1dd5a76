// Package cachestore provides the content-addressed on-disk
// implementation of engine.CacheStore: compiled per-function artifacts
// that survive process restarts, so a freshly started mira-serve daemon
// restores every unchanged function's object fragment instead of
// recompiling it. Each entry is one compiled unit under its
// function-content key (core.FuncKeys):
//
//	<dir>/funcs/<key[:2]>/<key>.mira
//
// Each entry file is one self-contained checksummed frame (see
// EncodeFrame):
//
//	magic "MIRACS<version>\n" (engine.CacheFormatVersion)
//	length-prefixed sections (uvarint length + bytes): key, name, unit
//	sha256 over everything before it (32 bytes)
//
// Writes go through a temp file in the same directory followed by an
// atomic rename, so a crashed writer can never leave a half entry under
// the final name. Reads verify the magic, the embedded key, the section
// framing, and the checksum; any mismatch — truncation, corruption, a
// past or future format version — is a miss, never an error: a damaged
// or stale cache degrades to a recompile of exactly the function whose
// entry is damaged.
package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"mira/internal/engine"
)

// magic is derived from the shared cache-key format version: bumping
// engine.CacheFormatVersion retires every on-disk entry as a clean miss.
var magic = fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)

// Disk is a content-addressed on-disk CacheStore.
type Disk struct {
	dir string
}

// Ensure the engine contract is met.
var _ engine.CacheStore = (*Disk)(nil)

// Open prepares a disk store rooted at dir, creating it if needed.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, "funcs"), 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// ValidKey gates what may become a file name or a peer-protocol path
// segment: the engine's keys are lowercase hex, and anything else (path
// separators, dots) is refused outright rather than risked against the
// filesystem or a URL.
func ValidKey(key string) bool {
	if len(key) < 4 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, "funcs", key[:2], key+".mira")
}

// LoadFunc reads, verifies, and decodes the per-function entry stored
// under key (a function-content hash). Any defect in the on-disk bytes
// is a miss, confined to this one entry — sibling functions keep
// loading, and the caller recompiles exactly the function that missed.
func (d *Disk) LoadFunc(key string) (*engine.FuncEntry, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	sections, err := DecodeFrame(magic, key, raw, 3)
	if err != nil {
		return nil, false
	}
	return &engine.FuncEntry{
		Name: string(sections[1]),
		Unit: append([]byte(nil), sections[2]...),
	}, true
}

// StoreFunc persists e under key via temp file + atomic rename.
func (d *Disk) StoreFunc(key string, e *engine.FuncEntry) error {
	if !ValidKey(key) {
		return fmt.Errorf("cachestore: invalid key %q", key)
	}
	raw := EncodeFrame(magic, []byte(key), []byte(e.Name), e.Unit)
	target := d.path(key)
	if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(target), "tmp-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error wins
		return fmt.Errorf("cachestore: write %s: %w", key, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), target); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the rename error wins
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// FuncLen counts the per-function entries currently on disk (for stats
// and tests; it walks the fan-out directories).
func (d *Disk) FuncLen() int {
	n := 0
	fans, _ := os.ReadDir(filepath.Join(d.dir, "funcs"))
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(d.dir, "funcs", fan.Name()))
		for _, f := range files {
			if filepath.Ext(f.Name()) == ".mira" {
				n++
			}
		}
	}
	return n
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EncodeFrame frames sections for storage or transfer: magic, then each
// section as a uvarint length and its bytes, then a sha256 over
// everything before it. The on-disk store frames under "MIRACS<v>\n";
// the peer wire uses the same frame under its own magic.
func EncodeFrame(magic string, sections ...[]byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	for _, s := range sections {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		buf.Write(tmp[:n])
		buf.Write(s)
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// DecodeFrame verifies magic, checksum, and framing of a frame built by
// EncodeFrame and returns exactly want (at least one) sections,
// aliasing raw; sections[0] must equal key. Every accepted frame is the
// one EncodeFrame(magic, sections...) produces: lengths must be
// minimally encoded and nothing may trail the last section. Any defect
// is an error the caller turns into a miss.
func DecodeFrame(magic, key string, raw []byte, want int) ([][]byte, error) {
	if len(raw) < len(magic)+sha256.Size || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("cachestore: bad frame magic or truncated frame")
	}
	body, sum := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	wantSum := sha256.Sum256(body)
	if !bytes.Equal(sum, wantSum[:]) {
		return nil, fmt.Errorf("cachestore: frame checksum mismatch")
	}
	r := body[len(magic):]
	sections := make([][]byte, want)
	var tmp [binary.MaxVarintLen64]byte
	for i := range sections {
		length, n := binary.Uvarint(r)
		if n <= 0 || n != binary.PutUvarint(tmp[:], length) || uint64(len(r)-n) < length {
			return nil, fmt.Errorf("cachestore: frame section %d framing", i)
		}
		sections[i] = r[n : n+int(length)]
		r = r[n+int(length):]
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("cachestore: trailing frame bytes")
	}
	if string(sections[0]) != key {
		return nil, fmt.Errorf("cachestore: frame for key %q read under key %q", sections[0], key)
	}
	return sections, nil
}
