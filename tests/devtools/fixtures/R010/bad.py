"""Bad: first-party imports buried in function bodies."""


def load_detector():
    import repro.mining.incremental

    return repro.mining.incremental


def run_detection(tpiin):
    from repro.mining.parallel import parallel_detect

    return parallel_detect(tpiin)


def outer():
    def inner():
        from repro.graph.digraph import DiGraph

        return DiGraph

    return inner


def relative_variant():
    from .detector import detect

    return detect
