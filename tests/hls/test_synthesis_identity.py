"""Synthesis identity golden: what the flow builds, pinned by digest.

Design-space exploration compares points by what ``synthesize`` builds
for them, so its artifacts are pinned here for the seven §V kernels at
opt levels 0, 1 and 2 and at the four clocks the ``hls_dse`` benchmark
explores:

* the optimized IR text (every LICM hoist decision shows in it);
* the schedule length of every block of every design;
* every design's Verilog.

Each digest is the sha256 of that record as canonical JSON.  A digest
mismatch means the flow builds something else.  A speed-up of the
middle end, the component library or the back end must never cause one.

The second half checks the component library's memoized ``select``
against a plain scan of its records.
"""

import hashlib
import json

import pytest
from test_interp_identity import SOURCES

from repro.hls import synthesize
from repro.hls.characterization.library import (
    CharacterizationError,
    ComponentRecord,
    default_library,
)

CLOCKS_NS = (5.0, 8.0, 10.0, 12.5)

#: (kernel, opt level, clock) -> sha256 of the synthesis record.
DIGESTS = {
    ("conv2d", 0, 5.0):
        "203933856d2a4238c43f8e0c74aa00ff34da6e6aed11b24106529abe7c9b7e17",
    ("conv2d", 0, 8.0):
        "e02c2a69db379488eb9640bc8bb466071cbdb071312401479d192be387930a61",
    ("conv2d", 0, 10.0):
        "712306247c213c529b83e0d966e2e4ca75b837cb4acf46f0f7675701dc46ad8a",
    ("conv2d", 0, 12.5):
        "fa3089d630a23855e5774306bc427377f5aae512599afc2eb61fb6eb56049f62",
    ("conv2d", 1, 5.0):
        "ae7d1fa9938d2a00b9984a969655ad72bd1809085be71d16422ac127a9f1a0a4",
    ("conv2d", 1, 8.0):
        "abff2973172ce8bd834ef21cfba928d157d89a6b6a0d5488a0f261ea8847dbbc",
    ("conv2d", 1, 10.0):
        "ea490fc08863c67f9e61dfb3c9d4853213e3121c9ed125c1908a247ad774cbb8",
    ("conv2d", 1, 12.5):
        "7cce7f381e7378adadcf815dafad0d37d7a41fc78bd82b1c3699ea3de816fec2",
    ("conv2d", 2, 5.0):
        "85524813f50f61614361ddc2b0887be43f017a479ba3ea006167a062d71e1fb7",
    ("conv2d", 2, 8.0):
        "4d7dca8fe427c08ce138ecabd54f10373114ce776095b3f2d13e35d118049c6a",
    ("conv2d", 2, 10.0):
        "300ac0bc8a3194a3a371932f8fc41400b83ef92f8a8f3600534c0cbe90ac4411",
    ("conv2d", 2, 12.5):
        "970cab446a6fddfd74bc79413f7392e2c7fc4f2a164e36c3a7437353bdb365dd",
    ("dpcm_encode", 0, 5.0):
        "31099cfec6d9e4503363432db51425e63f16af250fc8e6543b6ddfc8158b9a3d",
    ("dpcm_encode", 0, 8.0):
        "83a8196bed923c1b49efdcea2c224de6b94c149eb895430b17bf1e2a306db9a9",
    ("dpcm_encode", 0, 10.0):
        "a26a0a75d20a925b8104edc56a925afb2636c8191aa2b92f389f74e3fa9329fa",
    ("dpcm_encode", 0, 12.5):
        "73227c9d3e7e21ab9fb4c9fd4c734b67b3b4daf7a699c723da3a5e1754e2e39d",
    ("dpcm_encode", 1, 5.0):
        "3fd6900218116ff5ae7db62e492e44d1a581361e64d73aa22f4bca279da07e94",
    ("dpcm_encode", 1, 8.0):
        "0cbf31ef5c9292b2b0a2d43c811f22f82b00330653605e1c432b37680e5700b4",
    ("dpcm_encode", 1, 10.0):
        "b38402e132d0a28cf52c640ea841aefff2bfe454cabac5d6d24f087440be665e",
    ("dpcm_encode", 1, 12.5):
        "7094e61d0b4c2c3c83dd6b4e800d7c562c8b085b264427858f72cdd6a63e7bbc",
    ("dpcm_encode", 2, 5.0):
        "9263dc7f7a5e981a36b2d8d1a6878fad66523b49a25e93f6176362550c13e62c",
    ("dpcm_encode", 2, 8.0):
        "3154463e7179b208134d6afcbbabc9e2fc23bbe2be85bab68d0180a789009434",
    ("dpcm_encode", 2, 10.0):
        "ee88f8275abc0047a7d9d88fc11a6087e1956b184ee85b85604cda2aac17bfaa",
    ("dpcm_encode", 2, 12.5):
        "2f6ef3e3cc3ae7d4a20de5643d68e510b2336a3ef6e722bbe6967732d2c3f0ff",
    ("fft16", 0, 5.0):
        "0c432214cf908ed02d44c524ddacb34c563401362114e2b90a97fa60f1462cc8",
    ("fft16", 0, 8.0):
        "7bbfc85553eb93a03b9e0a2050ea111766574e16302b0a89ec0eca1579bce9bb",
    ("fft16", 0, 10.0):
        "0cab61da72fc1a3ab520414f5761027ec66b4db6aca98dc5ca67060b1a219833",
    ("fft16", 0, 12.5):
        "8ae8f752c91e7713518f558625cf1f7aae7ce76fe09f1a48ec7ce42da3deafb1",
    ("fft16", 1, 5.0):
        "0c432214cf908ed02d44c524ddacb34c563401362114e2b90a97fa60f1462cc8",
    ("fft16", 1, 8.0):
        "7bbfc85553eb93a03b9e0a2050ea111766574e16302b0a89ec0eca1579bce9bb",
    ("fft16", 1, 10.0):
        "0cab61da72fc1a3ab520414f5761027ec66b4db6aca98dc5ca67060b1a219833",
    ("fft16", 1, 12.5):
        "8ae8f752c91e7713518f558625cf1f7aae7ce76fe09f1a48ec7ce42da3deafb1",
    ("fft16", 2, 5.0):
        "484704f3b74d748cf8c7f1cddf032452b14b59c401f29bc376fe8a7e81afad8c",
    ("fft16", 2, 8.0):
        "a3e03ab9f13e9a6a2d350ec48a2bbdabe3e2e7d23955646f03c712af897f3a0f",
    ("fft16", 2, 10.0):
        "1963eaa2540aff4130c6bd6d89fc8f9546205935f7689afc1def3db9ec23dc45",
    ("fft16", 2, 12.5):
        "f35dabfdfe0b6888f6e0ec30855ee7d619d107e27fa61bfcc7ec9caac0ee082a",
    ("fir8", 0, 5.0):
        "df6a331c20bfe07d7ef4c7e54c86c6f37d2514b960781e70f4fafac1025539e2",
    ("fir8", 0, 8.0):
        "cfa0f6d5245177b4e531dea45b2559c2fba29308eaf7678b0508ba64bdb8810d",
    ("fir8", 0, 10.0):
        "074f292527688a792be0e6911d1e89d4e5d15a0f183cef926295e4151fa096b0",
    ("fir8", 0, 12.5):
        "ffc6a546476079d69f904206440c4a33a84a12c5030c5f199f9efaa326cdadd1",
    ("fir8", 1, 5.0):
        "df6a331c20bfe07d7ef4c7e54c86c6f37d2514b960781e70f4fafac1025539e2",
    ("fir8", 1, 8.0):
        "cfa0f6d5245177b4e531dea45b2559c2fba29308eaf7678b0508ba64bdb8810d",
    ("fir8", 1, 10.0):
        "074f292527688a792be0e6911d1e89d4e5d15a0f183cef926295e4151fa096b0",
    ("fir8", 1, 12.5):
        "ffc6a546476079d69f904206440c4a33a84a12c5030c5f199f9efaa326cdadd1",
    ("fir8", 2, 5.0):
        "4a29895e279bc12f4236a8c21e7ba5b4c766241812298f185469996a2b116c47",
    ("fir8", 2, 8.0):
        "13928e7cd950647b117210e2012470dffbb91b08ba0282b8f8e3e5dda93d1934",
    ("fir8", 2, 10.0):
        "c9fc53729da6d62fc48ce73411a98e35ed8b15d781837db2ab8c0363da82f289",
    ("fir8", 2, 12.5):
        "ecbfd122dddac59b3b862f6795f38e9420694c76f9406a99d6ad9515692ec163",
    ("harris16", 0, 5.0):
        "ef09c00761cf13474c14c2a0fe5177d019eef62109aec7311e99fd345a0488e1",
    ("harris16", 0, 8.0):
        "ac402b204b1913bad0f278f22cf6b3be10e54fd90522d98bcca5f917b9e3921c",
    ("harris16", 0, 10.0):
        "5dfedefbda0e7e44a87c1e4618e4b9af652b38498c778f477a67875a5d151b0d",
    ("harris16", 0, 12.5):
        "d27fa4d5d6365350920782a7410a0b2fe24f417563c41d267479d75da3bb6a19",
    ("harris16", 1, 5.0):
        "6e1f5cb046ecbc90ac9a0c9e391f60cbfb0076329cbf2ffb3c2a41b4b0c214a6",
    ("harris16", 1, 8.0):
        "31601f7abb4783976c64ea5f5eb5820ab0657ead7f19bbc8481b6862dc169b83",
    ("harris16", 1, 10.0):
        "7176eb2967382b1b91b49221233d1ad4b39a3367ab14353dc32fec8b945d5a31",
    ("harris16", 1, 12.5):
        "f62dbc1247c2d1c5e51bba98ed7fe22943c84f3af6ca4943b89ad7726f879452",
    ("harris16", 2, 5.0):
        "74444bcb2f08625f6420dc30b8012922c62a810db36e1fba9bb6d94e00fd4f77",
    ("harris16", 2, 8.0):
        "1a69688294ebc38d95bf0fbb9240adab0434a8852ca5e8380c30dbd2651f0b2e",
    ("harris16", 2, 10.0):
        "6d06b89c6d33df9f138287796a548d79b656bc4100fc753ddcf8b95d0eb3d860",
    ("harris16", 2, 12.5):
        "56bb42231987bce108befde871d338bd75d3bcfc3d4d8d59033060c326fa6a9f",
    ("mlp", 0, 5.0):
        "b9cb080f00d14b7e016a7330a2262f153cac7d6ce4904c137ca457da93d34fb2",
    ("mlp", 0, 8.0):
        "8f0e0b35594cfc024e7cc23c90405bf8e0404e1f05ecdd550a87b8277426e46a",
    ("mlp", 0, 10.0):
        "c7dbe1c5dcf2db92248f74364ea4444f990a7e44f891c6d99664fc89b97f8d2a",
    ("mlp", 0, 12.5):
        "82a4e61f896d344bbfe5086e784cce39ee176f72032e50b426def789cbf75740",
    ("mlp", 1, 5.0):
        "864231f8aed0d3ad91118fc34b88e1a6e025a216ddd57b9a1d0f9e0a742d3605",
    ("mlp", 1, 8.0):
        "3d99d45dbf3c9dc993e3e926d9766cbd506c3e50f24011f87d6c09861478ced4",
    ("mlp", 1, 10.0):
        "94b940189edbf4765b813b2d885b7aa4c56b7b5b5375f70ab7db5a2df25ddc35",
    ("mlp", 1, 12.5):
        "1d4316e65cd0214cbac702cef792862ae018b8cde6204bc698d8f53dee1d0b06",
    ("mlp", 2, 5.0):
        "a02f325c7044b7cb57d3caec239bbe4917309af8d1f169387de8d21c7ece6bb0",
    ("mlp", 2, 8.0):
        "0d5cf36b7ffa71ea5fe4a342e0e66ec602bdef1a8cbb4735c0882f8b383cef3a",
    ("mlp", 2, 10.0):
        "3ad4783c8c4b2d6d32da45f2729231d82b811d603e31670b81d7d9ec84c8707f",
    ("mlp", 2, 12.5):
        "e6a9469531cbe66f00fb30190866bf290d403a32dfaa4aedc9f1d9360aef707d",
    ("sobel", 0, 5.0):
        "107c7eeb97538fdec7389fcdc9b23ead4fae6fd294bd352f7b39c0d43412a3c7",
    ("sobel", 0, 8.0):
        "b4b813b9bf8dab6db14271ed81012d96b0d2c33b4cc961e2a0fe2e2b010cc10b",
    ("sobel", 0, 10.0):
        "617bca378374dca27c905ed1c8f74c88494c77eb6690d584914f0b4dfae845e7",
    ("sobel", 0, 12.5):
        "4e38cd3c9eb2b7aa17a05cf97e201191cc6d3b9aa4318681674da3c466d1415a",
    ("sobel", 1, 5.0):
        "70db79aa0ee7c4932bb32a0a60f8c1081c9aa3107902c874f57b9c8db0d457c9",
    ("sobel", 1, 8.0):
        "65e3c2af3589c0fd4aad35c1ed8622716eee8b9bcb14323aad187b6c975c7e56",
    ("sobel", 1, 10.0):
        "d3ac9b05b017a4837876b908636cb4262fa5f1787f9ef16de88661b99dec3d41",
    ("sobel", 1, 12.5):
        "8b7e62a8de8186e594363120133887362b30c7829f172c93e77487601578666e",
    ("sobel", 2, 5.0):
        "45434aa406d468e7cf936eebe380eaca7d5432561efd9929657d5245cf06c1b3",
    ("sobel", 2, 8.0):
        "cb8508549cfaa2eb6bcd3c588e4c71c0bb75c857f32099d155081818a115b1c4",
    ("sobel", 2, 10.0):
        "6b9ce0a86c02d97a2ed10e937b6ea0e238d7a0c5ccd4ebcb714e04ba2952e251",
    ("sobel", 2, 12.5):
        "50453eaa90f1f6690634e4b1f03d3fb2213b3222c5dec695e0f4d34e6409601f",
}


def record(project):
    return {
        "ir": str(project.module),
        "schedule": {name: [[block, schedule.length] for block, schedule
                            in design.schedule.blocks.items()]
                     for name, design in project.designs.items()},
        "verilog": {name: design.verilog
                    for name, design in project.designs.items()},
    }


def digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kernel,opt,clock", sorted(DIGESTS))
def test_synthesis_matches_golden(kernel, opt, clock):
    project = synthesize(SOURCES[kernel], kernel, clock_ns=clock,
                         opt_level=opt)
    assert digest(record(project)) == DIGESTS[kernel, opt, clock]


def test_golden_covers_the_exploration_grid():
    kernels = sorted(set(SOURCES) - {"calls"})
    assert sorted(DIGESTS) == sorted(
        (kernel, opt, clock) for kernel in kernels for opt in (0, 1, 2)
        for clock in CLOCKS_NS)


# -- component selection ------------------------------------------------------


def scan_select(library, resource_class, width, clock_ns):
    """``ComponentLibrary.select`` as a plain scan over ``records()``."""
    records = [r for r in library.records()
               if r.resource_class == resource_class]
    if not records:
        raise CharacterizationError(resource_class)
    widths = sorted({r.width for r in records})
    chosen = next((w for w in widths if w >= width), widths[-1])
    variants = sorted((r for r in records if r.width == chosen),
                      key=lambda r: r.stages)
    return next((r for r in variants if r.delay_ns <= clock_ns),
                variants[-1])


def test_select_equals_a_scan():
    library = default_library()
    classes = sorted({r.resource_class for r in library.records()})
    widths = sorted({r.width for r in library.records()}
                    | {0, 2, 7, 9, 17, 31, 33, 63, 65, 128})
    clocks = (0.5, 1.0, 1.3, 2.0, 2.5, 3.0, 5.0, 8.0, 10.0, 12.5, 100.0)
    checked = 0
    for resource_class in classes:
        for width in widths:
            for clock in clocks:
                expected = scan_select(library, resource_class, width, clock)
                # Twice: the second answer comes from the memo.
                for _ in range(2):
                    assert library.select(resource_class, width,
                                          clock) == expected
                checked += 1
    assert checked == len(classes) * len(widths) * len(clocks)
    with pytest.raises(CharacterizationError):
        library.select("no-such-class", 32, 10.0)


def test_add_after_select_changes_the_answer():
    library = default_library()
    before = library.select("addsub", 32, 10.0)
    assert before.stages == 0
    # A faster combinational adder replaces the 32-bit one ...
    faster = ComponentRecord("addsub", 32, 0, 0.2, luts=40, ffs=0)
    library.add(faster)
    assert library.select("addsub", 32, 10.0) == faster
    assert library.lookup("addsub", 32) == faster
    # ... a new, narrower width is seen by select and lookup ...
    narrow = ComponentRecord("addsub", 4, 0, 0.1, luts=4, ffs=0)
    library.add(narrow)
    assert library.select("addsub", 3, 10.0) == narrow
    assert library.lookup("addsub", 3) == narrow
    # ... and a new class becomes selectable.
    with pytest.raises(CharacterizationError):
        library.select("crc", 32, 10.0)
    crc = ComponentRecord("crc", 32, 1, 0.9, luts=30, ffs=32)
    library.add(crc)
    assert library.select("crc", 32, 10.0) == crc
    assert library.select("crc", 8, 0.1) == crc
