package fixture

import (
	"os"

	"supg/internal/durable"
)

// The shared framed log is recognized by its type, not its name: a
// variable called "catalog" holding a *durable.Log is still a durable
// log, and its Append/Rewrite still commit records.

func sharedLogUnsynced(catalog *durable.Log, data *os.File, rec []byte) error {
	if _, err := data.Write(rec); err != nil {
		return err
	}
	return catalog.Append(rec) // want `raw file write can reach this manifest/WAL append without an fsync`
}

func sharedLogRewriteUnsynced(catalog *durable.Log, data *os.File, rec []byte) error {
	if _, err := data.Write(rec); err != nil {
		return err
	}
	return catalog.Rewrite(func(write func([]byte) error) error { // want `raw file write can reach this manifest/WAL append without an fsync`
		return write(rec)
	})
}

func sharedLogSynced(catalog *durable.Log, data *os.File, rec []byte) error {
	if _, err := data.Write(rec); err != nil {
		return err
	}
	if err := data.Sync(); err != nil {
		return err
	}
	return catalog.Append(rec)
}

// anyAppend has an Append method but is not the durable log: clean.
type anyAppend struct{}

func (anyAppend) Append(rec []byte) error { return nil }

func otherAppend(a anyAppend, data *os.File, rec []byte) error {
	if _, err := data.Write(rec); err != nil {
		return err
	}
	return a.Append(rec)
}
