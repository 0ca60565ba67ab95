//! Index and pipeline micro-benchmarks: similarity matrix, authority,
//! TwitterRank convergence, classifier prediction and persistence.

use criterion::{criterion_group, criterion_main, Criterion};
use fui_baselines::{TwitterRank, TwitterRankConfig};
use fui_core::{AuthorityIndex, Propagator, ScoreParams, ScoreVariant};
use fui_datagen::{label_direct, twitter, TwitterConfig};
use fui_landmarks::{persist, LandmarkIndex, Strategy};
use fui_taxonomy::{SimMatrix, Taxonomy, Topic, TopicSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_indexes(c: &mut Criterion) {
    c.bench_function("simmatrix_build", |b| b.iter(SimMatrix::opencalais));
    let sim = SimMatrix::opencalais();
    let labels = TopicSet::single(Topic::Health).with(Topic::Politics);
    c.bench_function("simmatrix_max_sim", |b| {
        b.iter(|| sim.max_sim(labels, Topic::Technology))
    });
    c.bench_function("wu_palmer_direct", |b| {
        let tax = Taxonomy::opencalais();
        b.iter(|| tax.wu_palmer(Topic::Health, Topic::Technology))
    });

    let d = label_direct(twitter::generate(&TwitterConfig {
        nodes: 4000,
        avg_out_degree: 16.0,
        ..TwitterConfig::default()
    }));
    let mut group = c.benchmark_group("twitterrank");
    group.sample_size(10);
    group.bench_function("all_topics_4k", |b| {
        b.iter(|| {
            TwitterRank::compute(
                &d.graph,
                &d.tweet_counts,
                &d.publisher_weights,
                &TwitterRankConfig::default(),
            )
        })
    });
    group.finish();

    let authority = AuthorityIndex::build(&d.graph);
    let propagator = Propagator::new(
        &d.graph,
        &authority,
        &sim,
        ScoreParams::paper(),
        ScoreVariant::Full,
    );
    let mut rng = StdRng::seed_from_u64(1);
    let landmarks = Strategy::Random.select(&d.graph, 10, &mut rng);
    let index = LandmarkIndex::build(&propagator, landmarks, 100);
    c.bench_function("persist_encode", |b| {
        b.iter(|| persist::encode(&index, d.graph.num_nodes()))
    });
    let bytes = persist::encode(&index, d.graph.num_nodes());
    c.bench_function("persist_decode", |b| {
        b.iter(|| persist::decode(bytes.clone()).unwrap())
    });

    // LDA: one Gibbs sweep's worth of work over a small corpus.
    let vocab = fui_textmine::Vocabulary::new(50, 25);
    let tweet_gen = fui_textmine::TweetGenerator::new(vocab.clone(), 1.0, 0.3, 8, 12);
    let mut lda_rng = StdRng::seed_from_u64(2);
    let docs: Vec<Vec<u32>> = (0..100)
        .map(|i| {
            let mut w = fui_taxonomy::TopicWeights::zero();
            w.set(Topic::ALL[i % 4], 1.0);
            tweet_gen
                .tweets(&w, 8, &mut lda_rng)
                .into_iter()
                .flat_map(|t| t.words)
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("lda");
    group.sample_size(10);
    group.bench_function("fit_100docs_30iters", |b| {
        b.iter(|| {
            fui_textmine::LdaModel::fit(
                &docs,
                vocab.len(),
                &fui_textmine::LdaConfig {
                    topics: 6,
                    iterations: 30,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();

    // Dynamic maintenance: charging one churn event to 10 landmarks.
    let mut dynamic = fui_landmarks::DynamicLandmarks::new(index.clone());
    c.bench_function("dynamic_record_one_change", |b| {
        let change = fui_landmarks::EdgeChange {
            follower: fui_graph::NodeId(1),
            followee: fui_graph::NodeId(2),
            labels: TopicSet::single(Topic::Technology),
            kind: fui_landmarks::ChangeKind::Insert,
        };
        b.iter(|| dynamic.record(&change));
    });
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
