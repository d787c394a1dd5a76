package cachestore_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mira/internal/cachestore"
	"mira/internal/engine"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder every store
// entry and peer payload goes through. It must never panic, and any
// frame it accepts must be exactly the bytes EncodeFrame produces for
// the sections it returned.
func FuzzDecodeFrame(f *testing.F) {
	magic := fmt.Sprintf("MIRACS%d\n", engine.CacheFormatVersion)
	key := strings.Repeat("ab", 32)
	valid := cachestore.EncodeFrame(magic, []byte(key), []byte("kernel"), []byte{0, 1, 2, 254, 255})
	if _, err := cachestore.DecodeFrame(magic, key, valid, 3); err != nil {
		f.Fatalf("valid frame rejected: %v", err)
	}

	// The key's length (64) written as a two-byte uvarint instead of
	// one, with a checksum that matches: well formed except for the
	// non-minimal length, which would not re-encode to the same bytes.
	body := append([]byte(magic), 0x80|byte(len(key)), 0x00)
	body = append(body, key...)
	body = append(body, 6)
	body = append(body, "kernel"...)
	body = append(body, 1, 7)
	sum := sha256.Sum256(body)
	overlong := append(body, sum[:]...)
	if _, err := cachestore.DecodeFrame(magic, key, overlong, 3); err == nil {
		f.Fatal("frame with a non-minimal section length accepted")
	}

	flipped := append([]byte(nil), valid...)
	flipped[len(magic)+3] ^= 0x40
	f.Add(key, valid)
	f.Add(key, valid[:len(valid)/2])
	f.Add(key, valid[:len(valid)-1])
	f.Add(key, flipped)
	f.Add(key, overlong)
	f.Add(key, cachestore.EncodeFrame(magic, []byte(key)))
	f.Add("", cachestore.EncodeFrame(magic, nil, nil))
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		for want := 1; want <= 4; want++ {
			sections, err := cachestore.DecodeFrame(magic, key, raw, want)
			if err != nil {
				continue
			}
			if len(sections) != want || string(sections[0]) != key {
				t.Fatalf("accepted %d sections under key %q, want %d under %q", len(sections), sections[0], want, key)
			}
			if again := cachestore.EncodeFrame(magic, sections...); !bytes.Equal(again, raw) {
				t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, raw)
			}
		}
	})
}
