// Package diskcorpus loads a directory of CSV files into an analyzable
// corpus, applying the paper's acquisition pipeline (§3.1–§3.2, the
// funnel behind Table 1) to local files: content sniffing, header
// inference, cleaning, and the wide-table cutoff. It is the offline
// counterpart of the ckan fetch path — the same defects the portals
// serve over HTTP (preamble rows, trailing empty columns, non-CSV
// bodies behind .csv names) are handled here for files already on
// disk, so ogdpreport -dir, ogdpsearch and ogdpserve study a directory
// exactly the way ogdpreport studies a live portal. They all load
// through LoadStudyNotes, which sends a directory written by ogdpgen
// (it carries provenance.json) to gen.LoadCorpusNotes, the one loader
// that reads colstore files, and any other directory to Load.
//
// When an ogdpgen manifest (datasets.json) is present, tables are
// attached to their datasets so intra-dataset signals — the dataset
// locality feature §5.3 finds predictive of useful joins — keep
// working offline.
package diskcorpus
