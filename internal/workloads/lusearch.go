package workloads

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/memfs"
	"repro/internal/sbdcol"
	"repro/internal/stm"
	"repro/internal/txio"
)

// LuSearch: T threads run conjunctive queries against an on-disk
// inverted index. Like the real Lucene searcher, a query resolves each
// term through the term dictionary, reads that term's postings from the
// index file, and materializes them into fresh per-query buffers; the
// hits are then scored, the best document fetched from disk, highlighted
// and digested, and the result reported to the console.
//
// Paper profile: ~30% overhead flat across thread counts, a
// Check-New-dominated operation mix (the per-query postings buffers are
// new in their transaction; the term dictionary contributes the only
// recurring lock acquisitions), the largest relative lock-slab memory
// (+66%, Table 8), and two custom modifications (Table 4): the shared
// message-digest instance becomes thread-local, and a frequently updated
// directory-cache read/write conflict is resolved by reordering.

type lusearchInput struct {
	docs    []index.Document
	queries [][]string
	fs      *memfs.FS
	dir     map[string][2]int // term -> (offset, length) in index.dat
	// terms lists dir's keys sorted, the order the SBD variant fills its
	// term dictionary in: the insertion order shapes the bucket chains,
	// and with them how many entries each lookup read-locks, so a fixed
	// order makes Table 8's lock and R-W set bytes repeatable.
	terms []string
}

const lusearchIndexFile = "index.dat"

// LuSearch builds the LuSearch workload.
func LuSearch() *Workload {
	return &Workload{
		Name: "lusearch",
		Effort: Effort{
			LOC: 2452, Split: 4, Custom: 2, CanSplit: 2, Final: 46,
			Synchronized: 9, Volatile: 4,
		},
		Prepare: func(scale int) any {
			docs := index.GenCorpus(100*scale, 120, 0x5EA5C4)
			fs := memfs.New()
			for _, d := range docs {
				fs.WriteFile(fmt.Sprintf("docs/%d.txt", d.ID), []byte(d.Text))
			}
			encoded := index.Encode(index.Build(docs))
			fs.WriteFile(lusearchIndexFile, encoded)
			dir := buildTermDir(encoded)
			terms := make([]string, 0, len(dir))
			for term := range dir {
				terms = append(terms, term)
			}
			sort.Strings(terms)
			return &lusearchInput{
				docs:    docs,
				queries: index.Queries(80*scale, 0xC0FFEE),
				fs:      fs,
				dir:     dir,
				terms:   terms,
			}
		},
		Baseline: lusearchBaseline,
		SBD:      lusearchSBD,
	}
}

// buildTermDir scans the encoded index once and records each term's
// postings byte range — the term dictionary an index reader keeps in
// memory.
func buildTermDir(encoded []byte) map[string][2]int {
	dir := make(map[string][2]int)
	off := 0
	for off < len(encoded) {
		nl := off
		for nl < len(encoded) && encoded[nl] != '\n' {
			nl++
		}
		line := encoded[off:nl]
		for i := 0; i < len(line); i++ {
			if line[i] == ':' {
				dir[string(line[:i])] = [2]int{off + i + 1, len(line) - i - 1}
				break
			}
		}
		off = nl + 1
	}
	return dir
}

// parsePostings decodes a "id,id,id" byte range into document IDs.
func parsePostings(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	var out []int32
	v := int32(0)
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == ',' {
			out = append(out, v)
			v = 0
			continue
		}
		v = v*10 + int32(b[i]-'0')
	}
	return out
}

// digest is the message-digest stand-in: a tiny rolling hash with
// internal state, so sharing one instance across threads would conflict
// on every update.
type digestState struct{ h, n uint64 }

func (d *digestState) update(b []byte) {
	for _, c := range b {
		d.h = (d.h ^ uint64(c)) * 1099511628211
		d.n++
	}
}

func (d *digestState) sum() uint64 { return d.h ^ d.n }

func lusearchQueryChecksum(qi int, hits int, dig uint64) uint64 {
	var h uint64
	h = fnvU64(h, uint64(qi))
	h = fnvU64(h, uint64(hits))
	h = fnvU64(h, dig)
	return h
}

// pickBest scores every hit (the rank computation of a real search
// engine: pure float math over the candidate set) and returns the
// best-scored document, or -1. Both variants run it on their local hit
// slices.
func pickBest(qi int, hits []int32) int32 {
	if len(hits) == 0 {
		return -1
	}
	best := hits[0]
	bestScore := -1.0
	for _, id := range hits {
		x := float64(id)*0.6180339887498949 + float64(qi)*0.4142135623730951
		x -= math.Floor(x)
		// A few rounds of smoothing, standing in for tf-idf accumulation.
		s := x
		for r := 0; r < 4; r++ {
			s = 4 * s * (1 - s)
		}
		if s > bestScore {
			bestScore = s
			best = id
		}
	}
	return best
}

// highlight counts query-term occurrences in the document (the
// snippet/highlighting pass): pure byte scanning, identical in both
// variants.
func highlight(doc []byte, terms []string) int {
	occ := 0
	for _, t := range terms {
		occ += strings.Count(string(doc), t)
	}
	return occ
}

func lusearchBaseline(in any, threads int) uint64 {
	input := in.(*lusearchInput)
	idxData, err := input.fs.ReadFile(lusearchIndexFile)
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex // explicit synchronization: shared result sink
	var total uint64

	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var local uint64
			for qi := t; qi < len(input.queries); qi += threads {
				query := input.queries[qi]
				var hits []int32
				for ti, term := range query {
					rng, ok := input.dir[term]
					if !ok {
						hits = nil
						break
					}
					ids := parsePostings(idxData[rng[0] : rng[0]+rng[1]])
					if ti == 0 {
						hits = ids
					} else {
						hits = intersect32(hits, ids)
					}
					if len(hits) == 0 {
						break
					}
				}
				var dig digestState
				dig.h = 14695981039346656037
				occ := 0
				if best := pickBest(qi, hits); best >= 0 {
					data, err := input.fs.ReadFile(fmt.Sprintf("docs/%d.txt", best))
					if err != nil {
						panic(err)
					}
					occ = highlight(data, query)
					dig.update(data)
				}
				local += lusearchQueryChecksum(qi, len(hits), dig.sum()^uint64(occ))
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return total
}

var lusearchTermClass = stm.NewClass("lusearch.TermEntry",
	stm.FieldSpec{Name: "off", Kind: stm.KindWord, Final: true},
	stm.FieldSpec{Name: "len", Kind: stm.KindWord, Final: true},
)

func lusearchSBD(rt *core.Runtime, in any, threads int) uint64 {
	input := in.(*lusearchInput)
	fs := txio.NewFileSystem(input.fs)
	offF := lusearchTermClass.Field("off")
	lenF := lusearchTermClass.Field("len")

	// The shared term dictionary in the STM object model (term ->
	// postings byte range). Its entries are final, so lookups cost only
	// the bucket-chain read locks.
	var termDir sbdcol.StrMap
	// Result sink: per-thread checksum slots (thread-local aggregation).
	var results sbdcol.Counter
	// The "directory cache": a shared last-accessed-file field that every
	// query updates (the Table 4 read/write-conflict reorder target).
	dirCacheClass := stm.NewClass("lusearch.DirCache", stm.FieldSpec{Name: "last", Kind: stm.KindStr})
	dirLast := dirCacheClass.Field("last")
	var dirCache *stm.Object

	seedObject(rt, func(tx *stm.Tx) {
		termDir = sbdcol.NewStrMap(tx, 1024)
		for _, term := range input.terms {
			rng := input.dir[term]
			e := tx.New(lusearchTermClass)
			tx.WriteInt(e, offF, int64(rng[0]))
			tx.WriteInt(e, lenF, int64(rng[1]))
			termDir.Put(tx, term, e)
		}
		results = sbdcol.NewCounter(tx, threads)
		dirCache = tx.New(dirCacheClass)
	})

	digestClass := stm.NewClass("lusearch.Digest",
		stm.FieldSpec{Name: "h", Kind: stm.KindWord},
		stm.FieldSpec{Name: "n", Kind: stm.KindWord},
	)
	digH, digN := digestClass.Field("h"), digestClass.Field("n")

	console := txio.NewWriter(discardWriter{})

	rt.Main(func(th *core.Thread) {
		var kids []*core.Thread
		for t := 0; t < threads; t++ {
			slot := t
			kids = append(kids, th.Go("search", func(w *core.Thread) {
				// Custom modification: the shared message digest becomes
				// thread-local (undo-logged, never locked).
				var dig *stm.Object
				w.Atomic(func(tx *stm.Tx) { dig = tx.NewLocal(digestClass) })
				for qi := slot; qi < len(input.queries); qi += threads {
					query := input.queries[qi]
					w.Atomic(func(tx *stm.Tx) {
						hits := sbdSearch(tx, fs, termDir, offF, lenF, query)
						tx.WriteWord(dig, digH, 14695981039346656037)
						tx.WriteWord(dig, digN, 0)
						occ := 0
						if best := pickBest(qi, hits); best >= 0 {
							name := fmt.Sprintf("docs/%d.txt", best)
							f, err := fs.Open(tx, name)
							if err != nil {
								panic(err)
							}
							data := f.ReadAll()
							occ = highlight(data, query)
							h, n := tx.ReadWord(dig, digH), tx.ReadWord(dig, digN)
							for _, c := range data {
								h = (h ^ uint64(c)) * 1099511628211
								n++
							}
							tx.WriteWord(dig, digH, h)
							tx.WriteWord(dig, digN, n)
							// Custom modification (reorder): update the
							// shared directory cache last, after all reads,
							// so the write lock is held only at the section
							// tail instead of across the file read.
							tx.WriteStr(dirCache, dirLast, name)
						}
						console.Printf(tx, "q%d: %d hits\n", qi, len(hits))
						sum := tx.ReadWord(dig, digH) ^ tx.ReadWord(dig, digN)
						results.Add(tx, slot, int64(lusearchQueryChecksum(qi, len(hits), sum^uint64(occ))))
					})
					// One split per query: releases the dictionary read
					// locks and flushes the console aggregate.
					w.Split()
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})

	var total uint64
	tx := rt.STM().Begin()
	total = uint64(results.Sum(tx))
	tx.Commit()
	return total
}

// sbdSearch resolves each query term through the term dictionary, reads
// its postings from the index file (a transactional snapshot read), and
// materializes them into a per-query buffer that is new in this
// transaction — the Lucene shape, and the reason LuSearch's operation
// mix is Check-New dominated in the paper.
func sbdSearch(tx *stm.Tx, fs *txio.FileSystem, termDir sbdcol.StrMap,
	offF, lenF stm.FieldID, query []string) []int32 {
	idx, err := fs.Open(tx, lusearchIndexFile)
	if err != nil {
		panic(err)
	}
	var hits []int32
	for ti, term := range query {
		e := termDir.Get(tx, term)
		if e == nil {
			return nil
		}
		raw, err := idx.ReadAt(int(tx.ReadInt(e, offF)), int(tx.ReadInt(e, lenF)))
		if err != nil {
			panic(err)
		}
		ids := parsePostings(raw)
		// Per-query postings buffer: new in this transaction, so the
		// element writes and reads take the check-new fast path.
		buf := tx.NewArray(stm.KindWord, len(ids))
		for i, id := range ids {
			tx.WriteElem(buf, i, uint64(uint32(id)))
		}
		out := make([]int32, len(ids))
		for i := range out {
			out[i] = int32(uint32(tx.ReadElem(buf, i)))
		}
		if ti == 0 {
			hits = out
		} else {
			hits = intersect32(hits, out)
		}
		if len(hits) == 0 {
			return nil
		}
	}
	return hits
}

func intersect32(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// discardWriter drops console output (the benchmark measures the
// aggregation, not a terminal).
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
