package cli

import (
	"log"

	"ogdp/internal/corpus"
	"ogdp/internal/diskcorpus"
)

// LoadCorpus loads a saved corpus directory the way every tool that
// reads one does, through diskcorpus.LoadStudyNotes, and logs one
// "skipped <note>" line on l for each note either loader returns:
// files it could not read, and colstore files passed over for their
// CSV.
func LoadCorpus(dir string, l *log.Logger) (corpus.Source, error) {
	src, notes, err := diskcorpus.LoadStudyNotes(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range notes {
		l.Printf("skipped %s", n)
	}
	return src, nil
}
