package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/rowcodec"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Database snapshots: Save streams the catalog and every relation's
// rows; Restore rebuilds an equivalent database. Snapshots capture
// logical content plus the buffer pool size and per-relation page
// capacities, so restored databases measure the same costs.
//
// An image is the magic imageMagic followed by records in the shared
// rowcodec framing: a header holding the uvarint buffer pool size, then
// per relation one WAL create-table record and insert records of one
// heap page of rows each, then an empty record marking the end. The
// records use the WAL's payload encoding and are applied by the same
// applyRecord that WAL replay uses, so restoring an image reproduces
// the page layout of a bulk load.

const imageMagic = "NSQLIMG2"

// errImageFormat rejects anything that does not open with imageMagic,
// including the gob images written before this format.
var errImageFormat = errors.New("unsupported snapshot format")

// Save writes a snapshot of the database. Reading the rows goes through
// the buffer pool and is charged like any other scan; snapshot outside
// measured query windows.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	frame := []byte(imageMagic) // written ahead of the header record
	put := func(payload []byte) error {
		frame = rowcodec.AppendRecord(frame, payload)
		_, err := bw.Write(frame)
		frame = frame[:0]
		return err
	}
	if err := put(binary.AppendUvarint(nil, uint64(db.store.BufferPages()))); err != nil {
		return err
	}
	var payload []byte
	for _, name := range db.cat.Names() {
		if strings.Contains(name, "#") {
			// A per-query TEMPn#qN materialization: transient by
			// definition, never part of a snapshot. None should exist
			// when snapshotting under the exclusive DML lock; this is a
			// belt against an abandoned temp from a failed query.
			continue
		}
		rel, _ := db.cat.Lookup(name)
		f, ok := db.store.Lookup(rel.Name)
		if !ok {
			return fmt.Errorf("engine: relation %s has no storage", name)
		}
		tpp := f.TuplesPerPage()
		payload = wal.AppendPayload(payload[:0], wal.Record{Type: wal.RecCreateTable, Schema: walSchema(rel, tpp)})
		if err := put(payload); err != nil {
			return err
		}
		page := make([]storage.Tuple, 0, tpp)
		flush := func() error {
			payload = wal.AppendPayload(payload[:0], wal.Record{Type: wal.RecInsert, Table: rel.Name, Rows: page})
			page = page[:0]
			return put(payload)
		}
		var err error
		f.Scan(func(t storage.Tuple) bool {
			if page = append(page, t); len(page) == tpp {
				err = flush()
			}
			return err == nil
		})
		if err == nil && len(page) > 0 {
			err = flush()
		}
		if err != nil {
			return err
		}
	}
	if err := put(nil); err != nil {
		return err
	}
	return bw.Flush()
}

// Restore reads a snapshot written by Save into a new database. Any
// malformed, truncated or unsupported image fails whole.
func Restore(r io.Reader) (*DB, error) {
	db, err := loadImage(r, nil)
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	return db, nil
}

// loadImage applies an image to db, or when db is nil to a new
// database sized by the image's buffer pool. WAL recovery passes its
// (empty) database and is responsible for suppressing WAL logging
// while the records apply.
func loadImage(r io.Reader, db *DB) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != imageMagic {
		return nil, errImageFormat
	}
	var buf []byte
	next := func() ([]byte, error) {
		p, err := rowcodec.ReadRecord(br, buf)
		if err == io.EOF {
			return nil, fmt.Errorf("truncated image")
		}
		if err != nil {
			return nil, fmt.Errorf("image record: %w", err)
		}
		buf = p
		return p, nil
	}
	hdr, err := next()
	if err != nil {
		return nil, err
	}
	pages, n := binary.Uvarint(hdr)
	if n != len(hdr) || pages == 0 || pages > math.MaxInt32 {
		return nil, fmt.Errorf("bad image header")
	}
	if db == nil {
		db = New(int(pages))
	}
	for {
		p, err := next()
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			break
		}
		rec, err := wal.DecodePayload(p)
		if err != nil {
			return nil, fmt.Errorf("image record: %w", err)
		}
		if rec.Type != wal.RecCreateTable && rec.Type != wal.RecInsert {
			return nil, fmt.Errorf("unexpected %s record in image", rec.Type)
		}
		if err := contain(func() error { return db.applyRecord(rec) }); err != nil {
			return nil, fmt.Errorf("apply %s record: %w", rec.Type, err)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after image")
	}
	return db, nil
}

// walSchema is the logged form of a relation definition.
func walSchema(rel *schema.Relation, tuplesPerPage int) *wal.TableSchema {
	s := &wal.TableSchema{Name: rel.Name, Key: rel.Key, TuplesPerPage: tuplesPerPage}
	for _, c := range rel.Columns {
		s.Columns = append(s.Columns, wal.TableColumn{Name: c.Name, Kind: uint8(c.Type)})
	}
	return s
}
