package simgraph

import (
	"errors"
	"math"

	"icrowd/internal/lda"
	"icrowd/internal/task"
	"icrowd/internal/textsim"
)

// MeasureKind names the similarity measures compared in Appendix D.1.
type MeasureKind string

// Supported measures.
const (
	MeasureJaccard  MeasureKind = "Jaccard"
	MeasureTFIDF    MeasureKind = "Cos(tf-idf)"
	MeasureTopic    MeasureKind = "Cos(topic)"
	MeasureEuclid   MeasureKind = "Euclidean"
	MeasureEditDist MeasureKind = "EditSim"
)

// Measures lists the three textual measures of Appendix D.1 in paper order.
var Measures = []MeasureKind{MeasureJaccard, MeasureTFIDF, MeasureTopic}

// corpus returns the dataset's token lists, one per task.
func corpus(ds *task.Dataset) [][]string {
	docs := make([][]string, ds.Len())
	for i, t := range ds.Tasks {
		docs[i] = t.Tokens
	}
	return docs
}

// JaccardMetric scores tasks by Jaccard similarity over their token sets,
// interned once for the whole dataset.
func JaccardMetric(ds *task.Dataset) Metric {
	return MetricFunc(textsim.NewTokenSets(corpus(ds)).Jaccard)
}

// TFIDFMetric scores tasks by cosine similarity of TF-IDF vectors.
func TFIDFMetric(ds *task.Dataset) Metric {
	return MetricFunc(textsim.NewTFIDF(corpus(ds)).Similarity)
}

// TopicMetric scores tasks by cosine similarity of LDA topic distributions
// (the paper's best-performing Cos(topic) measure). topics defaults to the
// number of dataset domains when <= 0.
func TopicMetric(ds *task.Dataset, topics int, seed int64) (Metric, error) {
	if topics <= 0 {
		topics = len(ds.Domains)
	}
	if topics < 1 {
		return nil, errors.New("simgraph: topic metric needs at least one topic")
	}
	model, err := lda.Train(corpus(ds), lda.DefaultConfig(topics, seed))
	if err != nil {
		return nil, err
	}
	return MetricFunc(model.Similarity), nil
}

// EditMetric scores tasks by normalized edit similarity of their raw texts.
func EditMetric(ds *task.Dataset) Metric {
	return MetricFunc(func(i, j int) float64 {
		return textsim.EditSimilarity(ds.Tasks[i].Text, ds.Tasks[j].Text)
	})
}

// EuclideanMetric scores tasks by normalized Euclidean similarity over their
// feature vectors (Section 3.3 case 2). The normalizer τ_d is the maximum
// pairwise feature distance in the dataset.
func EuclideanMetric(ds *task.Dataset) (Metric, error) {
	var maxDist float64
	for i := 0; i < ds.Len(); i++ {
		if len(ds.Tasks[i].Features) == 0 {
			return nil, errors.New("simgraph: euclidean metric needs features on every task")
		}
		for j := i + 1; j < ds.Len(); j++ {
			d := textsim.Euclidean(ds.Tasks[i].Features, ds.Tasks[j].Features)
			if !math.IsInf(d, 1) && d > maxDist {
				maxDist = d
			}
		}
	}
	if maxDist == 0 {
		return nil, errors.New("simgraph: all feature vectors identical")
	}
	return MetricFunc(func(i, j int) float64 {
		return textsim.EuclideanSimilarity(ds.Tasks[i].Features, ds.Tasks[j].Features, maxDist)
	}), nil
}

// MetricFor returns the metric for a named measure over the dataset.
// seed only affects MeasureTopic.
func MetricFor(kind MeasureKind, ds *task.Dataset, seed int64) (Metric, error) {
	switch kind {
	case MeasureJaccard:
		return JaccardMetric(ds), nil
	case MeasureTFIDF:
		return TFIDFMetric(ds), nil
	case MeasureTopic:
		return TopicMetric(ds, 0, seed)
	case MeasureEuclid:
		return EuclideanMetric(ds)
	case MeasureEditDist:
		return EditMetric(ds), nil
	default:
		return nil, errors.New("simgraph: unknown measure " + string(kind))
	}
}
